"""Newline-delimited JSON wire protocol for the PDP.

One JSON object per line, UTF-8, ``\\n`` terminated — trivially
debuggable with ``nc`` and line-oriented tools, no framing code, and
every mainstream language can speak it.

Decision request::

    {"id": 7, "subject": "alice", "transaction": "watch",
     "object": "livingroom/tv", "env": ["weekday-free-time"],
     "identity_confidence": 1.0, "role_claims": {},
     "timeout_ms": 250,
     "trace": "9f86d081884c7d65-4355a46b19d348dc-01"}

``env`` is optional: absent/null resolves the environment through the
server's environment source at decision time; a list pins the
directly-active roles explicitly (replay / what-if traffic).

``trace`` is optional distributed-trace context in the compact
``<trace_id>-<parent_span_id>-<sampled>`` form of
:class:`~repro.obs.trace.TraceContext` — absent on untraced traffic,
so pre-tracing wire bytes are unchanged.  The shard router originates
or rewrites it per hop; the server threads it into the decision's
exported spans, flight-recorder entry, and audit record.

Decision response::

    {"id": 7, "outcome": "grant", "granted": true, "cached": false,
     "batch_size": 12, "latency_us": 183.4, "rationale": "..."}

Control messages use ``op`` instead of a request body: ``{"op":
"ping"}`` → ``{"op": "pong"}``; ``{"op": "stats"}`` → ``{"op":
"stats", "stats": {...}}``.  The live-ops suite (PR 4) rides the same
form: ``{"op": "metrics"}`` → Prometheus text + JSON snapshot;
``{"op": "health"}`` / ``{"op": "ready"}`` → liveness/readiness
bodies; ``{"op": "dump", "limit": 20, "since_seq": 0, "subject":
..., "outcome": ...}`` → flight-recorder entries.  Policy
administration (PR 5) adds ``{"op": "reload", "policy": "<DSL or
serialized-JSON text>", "actor": "...", "dry_run": false}`` →
``{"op": "reload", "accepted": ..., "record": {...}}`` where
``record`` is the audited :class:`~repro.policy.admin.ReloadRecord`
(who, when, diff summary, lint findings, rejection reason).  The
policy text rides the request line, so it shares the
``MAX_LINE_BYTES`` cap — ship larger policies by file path through
``serve --policy-file --watch`` instead.  A malformed line gets
``{"error": ...}`` (with the request's ``id`` echoed when one could
be parsed) — the connection stays usable.

Beside NDJSON, hot-path decision traffic can ride the length-prefixed
*binary* framing defined in the second half of this module (PR 6):
``{"op": "intern"}`` hands the client integer id tables, after which
requests and responses are fixed-layout struct frames — see the
"Binary framing" section below for the exact layout and staleness
contract.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.core.decision import AccessRequest
from repro.exceptions import GrbacError, ServiceError
from repro.obs.trace import TraceContext
from repro.service.pdp import DEFAULT_TENANT, PDPOutcome, PDPResponse

#: Hard cap on one wire line; longer lines are a protocol error, not a
#: buffer-growth vector.
MAX_LINE_BYTES = 64 * 1024

#: Cap for *op responses* read by clients: a full metrics exposition
#: (Prometheus text + JSON snapshot on one line) legitimately outgrows
#: a request line, and the server is the trusted party on that path.
MAX_OP_LINE_BYTES = 4 * 1024 * 1024


#: One compact encoder for every line: ``json.dumps`` given
#: ``separators=`` builds a new :class:`json.JSONEncoder` per call.
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"))


def dumps_line(payload: Dict[str, Any]) -> bytes:
    """Serialize one protocol message to a wire line."""
    return _LINE_ENCODER.encode(payload).encode("utf-8") + b"\n"


def parse_line(
    line: bytes, max_bytes: int = MAX_LINE_BYTES
) -> Dict[str, Any]:
    """Parse one wire line into a message dict.

    :raises ServiceError: on malformed JSON or a non-object payload.
    """
    if len(line) > max_bytes:
        raise ServiceError(f"wire line exceeds {max_bytes} bytes")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(f"malformed wire line: {error}") from None
    if not isinstance(payload, dict):
        raise ServiceError("wire message must be a JSON object")
    return payload


def decode_request(
    payload: Dict[str, Any]
) -> Tuple[Any, AccessRequest, Optional[FrozenSet[str]], Optional[float]]:
    """Decode a decision-request message.

    :returns: ``(id, request, env_override, timeout_s)``.
    :raises ServiceError: when required fields are missing/invalid.
    """
    request_id = payload.get("id")
    transaction = payload.get("transaction")
    obj = payload.get("object")
    if not isinstance(transaction, str) or not isinstance(obj, str):
        raise ServiceError("request needs string 'transaction' and 'object'")
    subject = payload.get("subject")
    if subject is not None and not isinstance(subject, str):
        raise ServiceError("'subject' must be a string or null")
    role_claims = payload.get("role_claims") or {}
    if not isinstance(role_claims, dict):
        raise ServiceError("'role_claims' must be an object")
    confidence = payload.get("identity_confidence", 1.0)
    if not isinstance(confidence, (int, float)):
        raise ServiceError("'identity_confidence' must be a number")
    env = payload.get("env")
    if env is not None:
        if not isinstance(env, list) or not all(
            isinstance(name, str) for name in env
        ):
            raise ServiceError("'env' must be a list of role names or null")
        env_override: Optional[FrozenSet[str]] = frozenset(env)
    else:
        env_override = None
    timeout_ms = payload.get("timeout_ms")
    if timeout_ms is not None and not isinstance(timeout_ms, (int, float)):
        raise ServiceError("'timeout_ms' must be a number or null")
    try:
        request = AccessRequest(
            transaction=transaction,
            obj=obj,
            subject=subject,
            role_claims={str(k): float(v) for k, v in role_claims.items()},
            identity_confidence=float(confidence),
        )
    except GrbacError as error:
        raise ServiceError(f"invalid request: {error}") from None
    timeout_s = float(timeout_ms) / 1000.0 if timeout_ms is not None else None
    return request_id, request, env_override, timeout_s


def decode_tenant(payload: Dict[str, Any]) -> Optional[str]:
    """The optional ``tenant`` field of a decision request.

    Kept beside (not inside) :func:`decode_request` so that function's
    4-tuple shape — and every single-tenant call site built on it —
    stays byte-for-byte compatible.  ``None`` means "default tenant".

    :raises ServiceError: when present but not a non-empty string.
    """
    tenant = payload.get("tenant")
    if tenant is None:
        return None
    if not isinstance(tenant, str) or not tenant:
        raise ServiceError("'tenant' must be a non-empty string or absent")
    return tenant


def decode_subscribe(payload: Dict[str, Any]) -> bool:
    """The optional ``subscribe`` field of a decision request.

    Kept beside (not inside) :func:`decode_request` for the same
    reason as :func:`decode_tenant`: the 4-tuple call sites stay
    untouched, and only continuous-authorization servers pay for the
    lookup.  ``True`` asks the server to keep watching the grant — a
    later environment-role flip that withdraws it is pushed to the
    connection as an unsolicited ``{"op": "revoke"}`` message instead
    of waiting for the client to re-ask (§4.2.2's videophone hangup).

    :raises ServiceError: when present but not a boolean.
    """
    subscribe = payload.get("subscribe")
    if subscribe is None:
        return False
    if not isinstance(subscribe, bool):
        raise ServiceError("'subscribe' must be a boolean or absent")
    return subscribe


def decode_trace_context(payload: Dict[str, Any]) -> Optional[TraceContext]:
    """The optional ``trace`` field of a decision request.

    Kept beside (not inside) :func:`decode_request` for the same
    reason as :func:`decode_tenant`: the 4-tuple call sites stay
    untouched, and only trace-aware layers pay for the parse.

    :raises ServiceError: when present but not a well-formed compact
        trace context.
    """
    wire = payload.get("trace")
    if wire is None:
        return None
    if not isinstance(wire, str):
        raise ServiceError("'trace' must be a string or absent")
    try:
        return TraceContext.parse(wire)
    except ValueError as error:
        raise ServiceError(str(error)) from None


def encode_request(
    request: AccessRequest,
    request_id: Any,
    env: Optional[FrozenSet[str]] = None,
    timeout_ms: Optional[float] = None,
    tenant: Optional[str] = None,
    trace: Optional[TraceContext] = None,
    subscribe: bool = False,
) -> Dict[str, Any]:
    """Build the wire message for one decision request.

    ``tenant=None`` produces exactly the pre-tenancy message — the
    field rides the wire only when a caller names a tenant.  Likewise
    ``trace=None`` (untraced) and ``subscribe=False`` add nothing.
    """
    payload: Dict[str, Any] = {
        "id": request_id,
        "subject": request.subject,
        "transaction": request.transaction,
        "object": request.obj,
    }
    if request.role_claims:
        payload["role_claims"] = dict(request.role_claims)
    if request.identity_confidence != 1.0:
        payload["identity_confidence"] = request.identity_confidence
    if env is not None:
        payload["env"] = sorted(env)
    if timeout_ms is not None:
        payload["timeout_ms"] = timeout_ms
    if tenant is not None:
        payload["tenant"] = tenant
    if trace is not None:
        payload["trace"] = trace.to_wire()
    if subscribe:
        payload["subscribe"] = True
    return payload


def encode_response(request_id: Any, response: PDPResponse) -> Dict[str, Any]:
    """Build the wire message for one PDP response.

    Default-tenant responses are byte-identical to the pre-tenancy
    form; only tenant-routed answers carry the echoed ``tenant``.
    """
    payload = {
        "id": request_id,
        "outcome": response.outcome.value,
        "granted": response.granted,
        "cached": response.cached,
        "batch_size": response.batch_size,
        "latency_us": round(response.latency_s * 1e6, 1),
        "rationale": response.rationale,
    }
    if response.tenant != DEFAULT_TENANT:
        payload["tenant"] = response.tenant
    if response.trace_id:
        payload["trace_id"] = response.trace_id
    return payload


@dataclass(frozen=True)
class WireResponse:
    """A decoded decision response, as seen by a remote client."""

    id: Any
    outcome: PDPOutcome
    granted: bool
    cached: bool
    batch_size: int
    latency_us: float
    rationale: str
    #: Tenant echoed by the server; ``None`` on default-tenant answers
    #: (whose wire form never carries the field) and on the binary
    #: lane, where the caller already knows what it asked for.
    tenant: Optional[str] = None
    #: Trace id echoed by the server on sampled NDJSON answers (empty
    #: when the decision was untraced, and always on the binary lane —
    #: a binary caller that originated the context already knows it).
    trace_id: str = ""

    @property
    def request_id(self) -> Any:
        """The wire ``id``, under the name the in-process
        :class:`~repro.service.pdp.PDPResponse` uses — call sites that
        attribute answers to requests work against either client."""
        return self.id


def decode_response(payload: Dict[str, Any]) -> WireResponse:
    """Decode a decision-response message.

    :raises ServiceError: on missing/unknown fields (including server-
        side ``{"error": ...}`` reports, surfaced as exceptions).
    """
    if "error" in payload:
        raise ServiceError(f"server rejected request: {payload['error']}")
    try:
        outcome = PDPOutcome(payload["outcome"])
    except (KeyError, ValueError):
        raise ServiceError(f"unknown response outcome in {payload!r}") from None
    tenant = payload.get("tenant")
    return WireResponse(
        id=payload.get("id"),
        outcome=outcome,
        granted=bool(payload.get("granted", False)),
        cached=bool(payload.get("cached", False)),
        batch_size=int(payload.get("batch_size", 0)),
        latency_us=float(payload.get("latency_us", 0.0)),
        rationale=str(payload.get("rationale", "")),
        tenant=tenant if isinstance(tenant, str) else None,
        trace_id=str(payload.get("trace_id", "")),
    )


@dataclass(frozen=True)
class WireRevocation:
    """An unsolicited grant withdrawal pushed by the server (§4.2.2).

    Identifies the grant by the wire ``id`` of the decision request it
    answered, plus the request triple for callers that did not keep
    their own ledger.  ``roles`` names the environment roles whose
    deactivation withdrew the grant; ``ts`` is the server's wall clock
    (``time.time()``) at the flip, so a subscriber can measure
    flip-to-delivery latency without a round trip.
    """

    id: Any
    subject: Optional[str]
    transaction: str
    obj: str
    roles: Tuple[str, ...]
    reason: str
    ts: float


def encode_revocation(revocation: WireRevocation) -> Dict[str, Any]:
    """Build the NDJSON ``{"op": "revoke"}`` push message."""
    payload: Dict[str, Any] = {
        "op": "revoke",
        "id": revocation.id,
        "subject": revocation.subject,
        "transaction": revocation.transaction,
        "object": revocation.obj,
        "roles": list(revocation.roles),
        "reason": revocation.reason,
        "ts": revocation.ts,
    }
    return payload


def decode_revocation(payload: Dict[str, Any]) -> WireRevocation:
    """Decode an ``{"op": "revoke"}`` push message.

    :raises ServiceError: on missing/invalid fields.
    """
    transaction = payload.get("transaction")
    obj = payload.get("object")
    if not isinstance(transaction, str) or not isinstance(obj, str):
        raise ServiceError("revoke needs string 'transaction' and 'object'")
    subject = payload.get("subject")
    if subject is not None and not isinstance(subject, str):
        raise ServiceError("revoke 'subject' must be a string or null")
    roles = payload.get("roles")
    if not isinstance(roles, list) or not all(
        isinstance(name, str) for name in roles
    ):
        raise ServiceError("revoke 'roles' must be a list of role names")
    ts = payload.get("ts", 0.0)
    if not isinstance(ts, (int, float)):
        raise ServiceError("revoke 'ts' must be a number")
    return WireRevocation(
        id=payload.get("id"),
        subject=subject,
        transaction=transaction,
        obj=obj,
        roles=tuple(roles),
        reason=str(payload.get("reason", "")),
        ts=float(ts),
    )


# ======================================================================
# Binary framing — the interned-ID fast lane
# ======================================================================
# Negotiated per *message*, not per connection: every binary frame
# starts with a magic byte (0xB1) that can never begin a JSON line, so
# a server peeks one byte and routes — NDJSON and binary clients (and
# even mixed messages from one client) coexist on one listener.
#
# Frame layout (network byte order throughout)::
#
#     +------+------+----------+-----------------+
#     | 0xB1 | kind | length:4 |  body (length)  |
#     +------+------+----------+-----------------+
#
# ``kind`` is KIND_REQUEST / KIND_RESPONSE / KIND_ERROR; ``length``
# counts body bytes only and is capped at MAX_FRAME_BYTES (the NDJSON
# line cap — same buffer-growth argument).
#
# Request body (fixed ``!IiiidB`` + optional env ids + tenant +
# trace)::
#
#     id:4  subject:4  transaction:4  object:4  confidence:8  flags:1
#     [env_count:2  env_id:2 ...]         (only when flags bit 0 set)
#     [tenant_len:1  tenant_utf8 ...]     (only when flags bit 1 set)
#     [trace_id:8  span_id:8  sampled:1]  (only when flags bit 2 set)
#
# ``flags`` is a bitfield (it was a 0/1 env marker pre-tenancy, so
# tenantless frames are byte-identical to the old layout): bit 0 =
# explicit env override present, bit 1 = tenant name present, bit 2 =
# trace context present.  The tenant rides as raw UTF-8
# (length-prefixed, <= 64 bytes by the store's name rule) rather than
# an interned id — intern tables are per-tenant-policy, so the tenant
# name must be readable *before* choosing a table.  The trace segment
# is the binary form of :class:`~repro.obs.trace.TraceContext` (two
# raw 64-bit ids plus the sampled flag) and is always the *last*
# segment, so a router can splice it onto a frame without decoding
# names; untagged frames stay byte-identical to the PR 7 layout.
#
# Entity fields carry *interned ids* from the ``{"op": "intern"}``
# handshake (below), so the hot path ships 25–40 bytes of integers and
# the server never hashes a name.  ``subject == -1`` means "no
# subject".  Requests that need strings anyway — role claims, names
# minted after the handshake, per-request timeouts — simply go as
# NDJSON on the same connection; the binary lane is an accelerator,
# not a replacement.
#
# Response body (fixed ``!IBBBId`` + UTF-8 rationale)::
#
#     id:4  outcome:1  granted:1  cached:1  batch_size:4  latency_us:8
#     rationale...
#
# Error body: ``id:4`` (0xFFFFFFFF when no id could be parsed) +
# UTF-8 message.
#
# The intern handshake is an NDJSON op: ``{"op": "intern"}`` returns
# ``{"op": "intern", "revision": N, "tables": {"subjects": [...],
# "objects": [...], "transactions": [...], "environment_roles":
# [...]}}`` — each list's index is the entity's id.  Tables are pure
# name<->integer codecs, NOT authorization state: a client holding
# stale tables decodes to the same *names* the server handed out, and
# an id minted for a since-deleted entity decodes to a name that then
# fails mediation exactly as the NDJSON form would.

#: First byte of every binary frame.  0xB1 is not valid ASCII/UTF-8
#: JSON start, so one-byte peek disambiguates the wire format.
BINARY_MAGIC = 0xB1

KIND_REQUEST = 1
KIND_RESPONSE = 2
KIND_ERROR = 3
#: Unsolicited server→client grant withdrawal (continuous
#: authorization).  Body: ``id:4  subject:4  transaction:4  object:4
#: ts:8  role_count:2  role_id:2...  reason_utf8...`` — the leading
#: ``id:4`` is the wire id the grant was issued under, so
#: :func:`peek_binary_id` works and a router relays by session without
#: decoding; entity/role fields are interned ids; ``ts`` is the
#: server's wall clock at the environment flip (revocation-latency
#: measurement).
KIND_REVOKE = 4

#: Full frame header: magic, kind, body length.
FRAME_HEADER = struct.Struct("!BBI")

#: Body-size cap, mirroring the NDJSON line cap.
MAX_FRAME_BYTES = MAX_LINE_BYTES

#: Wire id meaning "no request id" in a KIND_ERROR frame.
NO_REQUEST_ID = 0xFFFFFFFF

_REQUEST_FIXED = struct.Struct("!IiiidB")
_RESPONSE_FIXED = struct.Struct("!IBBBId")
_ENV_COUNT = struct.Struct("!H")

#: PDPOutcome <-> one-byte wire code.
_OUTCOME_CODES = {
    PDPOutcome.GRANT: 0,
    PDPOutcome.DENY: 1,
    PDPOutcome.DENY_OVERLOAD: 2,
    PDPOutcome.DENY_TIMEOUT: 3,
    PDPOutcome.ERROR: 4,
    PDPOutcome.DENY_UNKNOWN_TENANT: 5,
    PDPOutcome.DENY_UNAVAILABLE: 6,
}
_CODE_OUTCOMES = {code: outcome for outcome, code in _OUTCOME_CODES.items()}


class InternTables:
    """Per-connection name<->id codec behind the binary request lane.

    Ids are list indices: ``tables.subjects[i]`` is the name interned
    as subject id ``i``.  Built server-side from the live policy on
    each ``{"op": "intern"}`` and shipped to the client as plain name
    lists; both ends derive the reverse maps locally.
    """

    __slots__ = (
        "revision",
        "subjects",
        "objects",
        "transactions",
        "environment_roles",
        "_subject_ids",
        "_object_ids",
        "_transaction_ids",
        "_environment_ids",
    )

    def __init__(
        self,
        subjects: List[str],
        objects: List[str],
        transactions: List[str],
        environment_roles: List[str],
        revision: int = 0,
    ) -> None:
        self.revision = revision
        self.subjects = list(subjects)
        self.objects = list(objects)
        self.transactions = list(transactions)
        self.environment_roles = list(environment_roles)
        self._subject_ids = {name: i for i, name in enumerate(self.subjects)}
        self._object_ids = {name: i for i, name in enumerate(self.objects)}
        self._transaction_ids = {
            name: i for i, name in enumerate(self.transactions)
        }
        self._environment_ids = {
            name: i for i, name in enumerate(self.environment_roles)
        }

    @classmethod
    def from_policy(cls, policy) -> "InternTables":
        """Snapshot ``policy``'s entity names into fresh tables."""
        return cls(
            subjects=sorted(s.name for s in policy.subjects()),
            objects=sorted(o.name for o in policy.objects()),
            transactions=sorted(t.name for t in policy.transactions()),
            environment_roles=sorted(
                r.name for r in policy.environment_roles.roles()
            ),
            revision=policy.decision_revision,
        )

    def to_payload(self) -> Dict[str, Any]:
        """The ``{"op": "intern"}`` response body."""
        return {
            "op": "intern",
            "revision": self.revision,
            "tables": {
                "subjects": self.subjects,
                "objects": self.objects,
                "transactions": self.transactions,
                "environment_roles": self.environment_roles,
            },
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "InternTables":
        """Rebuild client-side tables from an intern response."""
        tables = payload.get("tables")
        if not isinstance(tables, dict):
            raise ServiceError(f"malformed intern response: {payload!r}")
        try:
            return cls(
                subjects=[str(n) for n in tables["subjects"]],
                objects=[str(n) for n in tables["objects"]],
                transactions=[str(n) for n in tables["transactions"]],
                environment_roles=[
                    str(n) for n in tables["environment_roles"]
                ],
                revision=int(payload.get("revision", 0)),
            )
        except (KeyError, TypeError) as error:
            raise ServiceError(
                f"malformed intern response: {error}"
            ) from None


def frame(kind: int, body: bytes) -> bytes:
    """Wrap ``body`` in a binary frame header."""
    if len(body) > MAX_FRAME_BYTES:
        raise ServiceError(f"binary frame exceeds {MAX_FRAME_BYTES} bytes")
    return FRAME_HEADER.pack(BINARY_MAGIC, kind, len(body)) + body


#: ``flags`` bits in the binary request body.
_FLAG_ENV = 0x01
_FLAG_TENANT = 0x02
_FLAG_TRACE = 0x04
#: Bit 3 = subscribe to continuous authorization for this grant.  A
#: pure flag — no body segment — so the trace segment stays last and
#: pre-subscription decoders (which never mask this bit) see a frame
#: whose walked offsets still land exactly on the body end.
_FLAG_SUBSCRIBE = 0x08

#: Fixed head of a KIND_REVOKE body (id, subject, transaction, object,
#: flip timestamp) — entity fields are interned ids, ``subject`` may
#: be -1, mirroring the request layout.
_REVOKE_FIXED = struct.Struct("!Iiiid")

#: Trace-context segment: raw trace id, raw span id, sampled flag.
_TRACE_SEGMENT = struct.Struct("!8s8sB")

#: Byte offset of ``flags`` inside a request body (end of the fixed
#: header) — what lets a router flip the trace bit without a decode.
_FLAGS_OFFSET = _REQUEST_FIXED.size - 1


def _pack_trace(trace: TraceContext) -> bytes:
    try:
        return _TRACE_SEGMENT.pack(
            bytes.fromhex(trace.trace_id),
            bytes.fromhex(trace.span_id),
            1 if trace.sampled else 0,
        )
    except (ValueError, struct.error):
        raise ServiceError(
            f"trace ids must be 16 hex chars: {trace.trace_id!r}/"
            f"{trace.span_id!r}"
        ) from None


def _unpack_trace(body: bytes, offset: int) -> Tuple[TraceContext, int]:
    try:
        trace_raw, span_raw, sampled = _TRACE_SEGMENT.unpack_from(body, offset)
    except struct.error as error:
        raise ServiceError(
            f"truncated binary trace segment: {error}"
        ) from None
    return (
        TraceContext(trace_raw.hex(), span_raw.hex(), bool(sampled)),
        offset + _TRACE_SEGMENT.size,
    )


def encode_binary_request(
    tables: InternTables,
    request: AccessRequest,
    request_id: int,
    env: Optional[FrozenSet[str]] = None,
    tenant: Optional[str] = None,
    trace: Optional[TraceContext] = None,
    subscribe: bool = False,
) -> bytes:
    """Encode one decision request as a binary frame.

    :raises ServiceError: when the request cannot ride the binary lane
        — uninterned names, role claims, a non-u32 id, or a tenant
        name over 255 UTF-8 bytes.  Callers (the remote client) catch
        this and fall back to NDJSON.
    """
    if request.role_claims:
        raise ServiceError("role claims require the NDJSON lane")
    if not isinstance(request_id, int) or not 0 <= request_id < NO_REQUEST_ID:
        raise ServiceError("binary lane needs an integer id below 2^32-1")
    tenant_bytes = b""
    if tenant is not None:
        tenant_bytes = tenant.encode("utf-8")
        if not 1 <= len(tenant_bytes) <= 255:
            raise ServiceError("tenant name must be 1-255 UTF-8 bytes")
    try:
        subject_id = (
            -1
            if request.subject is None
            else tables._subject_ids[request.subject]
        )
        transaction_id = tables._transaction_ids[request.transaction]
        object_id = tables._object_ids[request.obj]
        if env is not None:
            env_ids = [tables._environment_ids[name] for name in sorted(env)]
    except KeyError as error:
        raise ServiceError(f"name not interned: {error}") from None
    flags = (
        (0 if env is None else _FLAG_ENV)
        | (0 if tenant is None else _FLAG_TENANT)
        | (0 if trace is None else _FLAG_TRACE)
        | (_FLAG_SUBSCRIBE if subscribe else 0)
    )
    body = _REQUEST_FIXED.pack(
        request_id,
        subject_id,
        transaction_id,
        object_id,
        request.identity_confidence,
        flags,
    )
    if env is not None:
        body += _ENV_COUNT.pack(len(env_ids))
        body += struct.pack(f"!{len(env_ids)}H", *env_ids)
    if tenant is not None:
        body += bytes([len(tenant_bytes)]) + tenant_bytes
    if trace is not None:
        body += _pack_trace(trace)
    return frame(KIND_REQUEST, body)


def decode_binary_request_ex(
    tables: Optional[InternTables], body: bytes
) -> Tuple[
    Any,
    AccessRequest,
    Optional[FrozenSet[str]],
    Optional[float],
    Optional[str],
    Optional[TraceContext],
]:
    """Decode a KIND_REQUEST body, tenant and trace context included.

    :returns: ``(id, request, env_override, timeout_s, tenant,
        trace)`` — :func:`decode_request`'s shape plus the optional
        tenant name and propagated trace context.
    :raises ServiceError: on truncated/malformed bodies, unknown ids,
        or a connection that never ran the intern handshake.
    """
    if tables is None:
        raise ServiceError(
            "binary request before intern handshake; send {\"op\": \"intern\"}"
        )
    try:
        (
            request_id,
            subject_id,
            transaction_id,
            object_id,
            confidence,
            flags,
        ) = _REQUEST_FIXED.unpack_from(body)
        offset = _REQUEST_FIXED.size
        env_override: Optional[FrozenSet[str]] = None
        if flags & _FLAG_ENV:
            (count,) = _ENV_COUNT.unpack_from(body, offset)
            offset += _ENV_COUNT.size
            env_ids = struct.unpack_from(f"!{count}H", body, offset)
            offset += count * 2
            env_override = frozenset(
                tables.environment_roles[i] for i in env_ids
            )
        tenant: Optional[str] = None
        if flags & _FLAG_TENANT:
            if offset >= len(body):
                raise ServiceError("binary request truncated before tenant")
            tenant_len = body[offset]
            offset += 1
            raw = body[offset : offset + tenant_len]
            if len(raw) != tenant_len or tenant_len == 0:
                raise ServiceError("binary request has a malformed tenant")
            tenant = raw.decode("utf-8", "strict")
            offset += tenant_len
        trace: Optional[TraceContext] = None
        if flags & _FLAG_TRACE:
            trace, offset = _unpack_trace(body, offset)
        if offset != len(body):
            raise ServiceError(
                f"binary request has {len(body) - offset} trailing bytes"
            )
        subject = (
            None if subject_id == -1 else tables.subjects[subject_id]
        )
        request = AccessRequest(
            transaction=tables.transactions[transaction_id],
            obj=tables.objects[object_id],
            subject=subject,
            identity_confidence=confidence,
        )
    except struct.error as error:
        raise ServiceError(f"truncated binary request: {error}") from None
    except UnicodeDecodeError:
        raise ServiceError("binary request tenant is not UTF-8") from None
    except IndexError:
        raise ServiceError("binary request references unknown id") from None
    except GrbacError as error:
        raise ServiceError(f"invalid request: {error}") from None
    return request_id, request, env_override, None, tenant, trace


def decode_binary_request(
    tables: Optional[InternTables], body: bytes
) -> Tuple[Any, AccessRequest, Optional[FrozenSet[str]], Optional[float]]:
    """Decode a KIND_REQUEST body — same shape as :func:`decode_request`.

    The pre-tenancy 4-tuple surface.  A tenant-tagged frame raises
    rather than silently dropping the tenant — deciding a tenant's
    request against the default policy would be an isolation hole.
    (A trace-tagged frame is fine to drop here: trace context is
    telemetry, not authorization state.)
    """
    request_id, request, env_override, timeout_s, tenant, _trace = (
        decode_binary_request_ex(tables, body)
    )
    if tenant is not None:
        raise ServiceError(
            "tenant-tagged frame needs decode_binary_request_ex"
        )
    return request_id, request, env_override, timeout_s


def encode_binary_response(request_id: Any, response: PDPResponse) -> bytes:
    """Encode one PDP response as a binary frame."""
    wire_id = (
        request_id
        if isinstance(request_id, int) and 0 <= request_id < NO_REQUEST_ID
        else NO_REQUEST_ID
    )
    rationale = response.rationale.encode("utf-8")
    body = (
        _RESPONSE_FIXED.pack(
            wire_id,
            _OUTCOME_CODES[response.outcome],
            int(response.granted),
            int(response.cached),
            response.batch_size,
            response.latency_s * 1e6,
        )
        + rationale
    )
    return frame(KIND_RESPONSE, body)


def decode_binary_response(body: bytes) -> WireResponse:
    """Decode a KIND_RESPONSE body into a :class:`WireResponse`."""
    try:
        (
            request_id,
            outcome_code,
            granted,
            cached,
            batch_size,
            latency_us,
        ) = _RESPONSE_FIXED.unpack_from(body)
        outcome = _CODE_OUTCOMES[outcome_code]
    except (struct.error, KeyError) as error:
        raise ServiceError(f"malformed binary response: {error}") from None
    rationale = body[_RESPONSE_FIXED.size :].decode("utf-8", "replace")
    return WireResponse(
        id=request_id,
        outcome=outcome,
        granted=bool(granted),
        cached=bool(cached),
        batch_size=batch_size,
        latency_us=round(latency_us, 1),
        rationale=rationale,
    )


def encode_binary_error(request_id: Any, message: str) -> bytes:
    """Encode a protocol error as a binary frame."""
    wire_id = (
        request_id
        if isinstance(request_id, int) and 0 <= request_id < NO_REQUEST_ID
        else NO_REQUEST_ID
    )
    return frame(
        KIND_ERROR, struct.pack("!I", wire_id) + message.encode("utf-8")
    )


def decode_binary_error(body: bytes) -> Tuple[Optional[int], str]:
    """Decode a KIND_ERROR body into ``(request_id, message)``."""
    try:
        (wire_id,) = struct.unpack_from("!I", body)
    except struct.error as error:
        raise ServiceError(f"malformed binary error: {error}") from None
    message = body[4:].decode("utf-8", "replace")
    return (None if wire_id == NO_REQUEST_ID else wire_id), message


def encode_binary_revocation(
    tables: InternTables, revocation: WireRevocation
) -> bytes:
    """Encode one grant withdrawal as a KIND_REVOKE frame.

    :raises ServiceError: when the revocation cannot ride the binary
        lane — uninterned names or a non-u32 grant id.  The server
        catches this and pushes the NDJSON form instead; a withdrawal
        must never be silently dropped because a name was minted after
        the intern handshake.
    """
    wire_id = revocation.id
    if not isinstance(wire_id, int) or not 0 <= wire_id < NO_REQUEST_ID:
        raise ServiceError("binary revoke needs an integer id below 2^32-1")
    try:
        subject_id = (
            -1
            if revocation.subject is None
            else tables._subject_ids[revocation.subject]
        )
        transaction_id = tables._transaction_ids[revocation.transaction]
        object_id = tables._object_ids[revocation.obj]
        role_ids = [
            tables._environment_ids[name] for name in revocation.roles
        ]
    except KeyError as error:
        raise ServiceError(f"name not interned: {error}") from None
    body = (
        _REVOKE_FIXED.pack(
            wire_id, subject_id, transaction_id, object_id, revocation.ts
        )
        + _ENV_COUNT.pack(len(role_ids))
        + struct.pack(f"!{len(role_ids)}H", *role_ids)
        + revocation.reason.encode("utf-8")
    )
    return frame(KIND_REVOKE, body)


def decode_binary_revocation(
    tables: Optional[InternTables], body: bytes
) -> WireRevocation:
    """Decode a KIND_REVOKE body into a :class:`WireRevocation`.

    :raises ServiceError: on truncated/malformed bodies, unknown ids,
        or a connection that never ran the intern handshake.
    """
    if tables is None:
        raise ServiceError(
            "binary revoke before intern handshake; send {\"op\": \"intern\"}"
        )
    try:
        (wire_id, subject_id, transaction_id, object_id, ts) = (
            _REVOKE_FIXED.unpack_from(body)
        )
        offset = _REVOKE_FIXED.size
        (count,) = _ENV_COUNT.unpack_from(body, offset)
        offset += _ENV_COUNT.size
        role_ids = struct.unpack_from(f"!{count}H", body, offset)
        offset += count * 2
        roles = tuple(tables.environment_roles[i] for i in role_ids)
        subject = (
            None if subject_id == -1 else tables.subjects[subject_id]
        )
        transaction = tables.transactions[transaction_id]
        obj = tables.objects[object_id]
    except struct.error as error:
        raise ServiceError(f"truncated binary revoke: {error}") from None
    except IndexError:
        raise ServiceError("binary revoke references unknown id") from None
    reason = body[offset:].decode("utf-8", "replace")
    return WireRevocation(
        id=wire_id,
        subject=subject,
        transaction=transaction,
        obj=obj,
        roles=roles,
        reason=reason,
        ts=ts,
    )


# ======================================================================
# Router support — peek helpers and synthesized refusals
# ======================================================================
# The cluster's ShardRouter forwards frames and lines *byte-for-byte*;
# it only needs the routing key (subject or tenant) and the request id
# out of each message, and a way to answer for a worker that is down.
# These helpers keep that knowledge here, next to the layouts they
# depend on, instead of leaking struct offsets into the router.


def peek_binary_request(
    tables: Optional[InternTables], body: bytes
) -> Tuple[int, Optional[str], Optional[str]]:
    """``(request_id, subject_name, tenant)`` of a KIND_REQUEST body.

    Unpacks only what routing needs — no :class:`AccessRequest` is
    built, env ids are skipped, nothing is validated beyond the
    offsets walked.  ``subject_name`` is ``None`` for subjectless
    requests or ids outside ``tables`` (stale tables route arbitrarily
    but still decode server-side to the same refusal NDJSON would).

    :raises ServiceError: truncated body, or ``tables`` is ``None``
        while the body names a subject (no handshake ran).
    """
    try:
        (request_id, subject_id, _, _, _, flags) = _REQUEST_FIXED.unpack_from(
            body
        )
        offset = _REQUEST_FIXED.size
        if flags & _FLAG_ENV:
            (count,) = _ENV_COUNT.unpack_from(body, offset)
            offset += _ENV_COUNT.size + count * 2
        tenant: Optional[str] = None
        if flags & _FLAG_TENANT:
            if offset >= len(body):
                raise ServiceError("binary request truncated before tenant")
            tenant_len = body[offset]
            offset += 1
            raw = body[offset : offset + tenant_len]
            if len(raw) != tenant_len or tenant_len == 0:
                raise ServiceError("binary request has a malformed tenant")
            tenant = raw.decode("utf-8", "replace")
    except struct.error as error:
        raise ServiceError(f"truncated binary request: {error}") from None
    subject: Optional[str] = None
    if subject_id != -1:
        if tables is None:
            raise ServiceError(
                "binary request before intern handshake; "
                'send {"op": "intern"}'
            )
        if 0 <= subject_id < len(tables.subjects):
            subject = tables.subjects[subject_id]
    return request_id, subject, tenant


def peek_binary_id(body: bytes) -> Optional[int]:
    """The leading wire id of a response/error body (both start
    ``id:4``); ``None`` for NO_REQUEST_ID or a truncated body."""
    if len(body) < 4:
        return None
    (wire_id,) = struct.unpack_from("!I", body)
    return None if wire_id == NO_REQUEST_ID else wire_id


def peek_binary_subscribe(body: bytes) -> bool:
    """Whether a KIND_REQUEST body carries the subscribe flag.

    A one-byte test against the flags offset — kept beside (not
    inside) :func:`decode_binary_request_ex` so that function's
    6-tuple shape and every call site built on it stay untouched;
    only continuous-authorization servers pay the extra peek.
    """
    return (
        len(body) > _FLAGS_OFFSET
        and bool(body[_FLAGS_OFFSET] & _FLAG_SUBSCRIBE)
    )


def encode_unavailable(request_id: Any, detail: str) -> Dict[str, Any]:
    """NDJSON ``DENY_UNAVAILABLE`` payload a client synthesizes for an
    unreachable worker.

    Shaped exactly like :func:`encode_response` output so
    :func:`decode_response` and every client treat it as a normal
    (refused) decision, never a protocol error.
    """
    return {
        "id": request_id,
        "outcome": PDPOutcome.DENY_UNAVAILABLE.value,
        "granted": False,
        "cached": False,
        "batch_size": 0,
        "latency_us": 0.0,
        "rationale": detail,
    }

