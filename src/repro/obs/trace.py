"""Span-style decision traces and distributed trace context.

One :class:`DecisionTrace` records the passage of a single access
request through the staged decision pipeline
(:mod:`repro.core.pipeline`): a :class:`StageSpan` per stage with its
duration and a small annotation dict of that stage's outputs, plus the
structured facts of the final decision (effective role sets, matched
rules, rationale).

Two producers build traces:

* the pipeline itself, when a decision is made with ``trace=True`` —
  spans carry real timings;
* ``Decision.explain()``, which *reconstructs* a timing-less trace
  from a decision's recorded fields so that every human-readable
  explanation — live, cached, or rebuilt from an audit record — is
  rendered by the same code path.

Across processes, a decision is identified by a :class:`TraceContext`
(``trace_id`` / ``span_id`` / head-sampled flag) that rides both wire
formats: the shard router originates or propagates context, each hop
emits a :class:`Span` naming its parent, and a :class:`SpanCollector`
joins router and worker spans into one waterfall after the fact.  The
compact wire form is ``"<trace_id>-<span_id>-<01|00>"`` — 16 lowercase
hex chars for each id, a two-digit sampled flag, nothing else.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional


def new_trace_id() -> str:
    """A fresh 64-bit trace id as 16 lowercase hex characters."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id as 16 lowercase hex characters."""
    return os.urandom(8).hex()


def _is_hex_id(value: str) -> bool:
    if len(value) != 16:
        return False
    return all(ch in "0123456789abcdef" for ch in value)


class TraceContext:
    """Propagated trace identity for one in-flight request.

    ``span_id`` is the *caller's* span — the hop that serialized this
    context — so the receiver records it as its own parent.  The
    ``sampled`` flag is the head-sampling decision made once at the
    origin: every downstream hop obeys it instead of re-rolling, which
    is what makes a cross-process trace either complete or absent,
    never partial.
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    @classmethod
    def origin(cls, sampled: bool = True) -> "TraceContext":
        """A fresh root context (new trace id, new origin span id)."""
        return cls(new_trace_id(), new_span_id(), sampled)

    def child(self) -> "TraceContext":
        """The context a downstream hop should forward: same trace,
        a fresh span id standing for *this* hop."""
        return TraceContext(self.trace_id, new_span_id(), self.sampled)

    def to_wire(self) -> str:
        return f"{self.trace_id}-{self.span_id}-{'01' if self.sampled else '00'}"

    @classmethod
    def parse(cls, wire: str) -> "TraceContext":
        """Parse the compact wire form.

        :raises ValueError: on anything that is not exactly
            ``<16 hex>-<16 hex>-<00|01>``.
        """
        parts = wire.split("-")
        if len(parts) != 3:
            raise ValueError(f"malformed trace context {wire!r}")
        trace_id, span_id, flag = parts
        if not (_is_hex_id(trace_id) and _is_hex_id(span_id)):
            raise ValueError(f"malformed trace context ids in {wire!r}")
        if flag not in ("00", "01"):
            raise ValueError(f"malformed trace context flag in {wire!r}")
        return cls(trace_id, span_id, flag == "01")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceContext):
            return NotImplemented
        return (
            self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.sampled == other.sampled
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.to_wire()!r})"


class Span:
    """One hop's contribution to a distributed trace.

    Unlike :class:`StageSpan` (an intra-process pipeline stage), a
    :class:`Span` carries the cross-process identity triple and the
    name of the service that emitted it, so a collector can join spans
    from different processes into one tree.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_span_id",
        "name",
        "service",
        "start_s",
        "duration_s",
        "annotations",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        name: str,
        service: str,
        parent_span_id: str = "",
        start_s: Optional[float] = None,
        duration_s: Optional[float] = None,
        annotations: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_span_id = parent_span_id
        self.name = name
        self.service = service
        self.start_s = start_s
        self.duration_s = duration_s
        self.annotations: Dict[str, object] = dict(annotations or {})

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "name": self.name,
            "service": self.service,
            "start_s": self.start_s,
            "duration_us": (
                round(self.duration_s * 1e6, 3)
                if self.duration_s is not None
                else None
            ),
            "annotations": dict(self.annotations),
        }


class SpanCollector:
    """A bounded in-memory store of span dicts, grouped by trace id.

    The cluster admin's trace endpoint and the router's span buffer
    both sit on this: :meth:`add` is one dict append, eviction drops
    whole *traces* oldest-first (a partially evicted trace would look
    like a propagation bug), and :meth:`get` hands back copies.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("span collector capacity must be >= 1")
        self.capacity = capacity
        self._traces: "OrderedDict[str, List[Dict[str, object]]]" = OrderedDict()
        self.added = 0
        self.evicted_traces = 0

    def add(self, span: Dict[str, object]) -> None:
        trace_id = span.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return
        bucket = self._traces.get(trace_id)
        if bucket is None:
            while len(self._traces) >= self.capacity:
                self._traces.popitem(last=False)
                self.evicted_traces += 1
            bucket = self._traces[trace_id] = []
        bucket.append(dict(span))
        self.added += 1

    def get(self, trace_id: str) -> List[Dict[str, object]]:
        return [dict(span) for span in self._traces.get(trace_id, ())]

    def trace_ids(self, limit: Optional[int] = None) -> List[str]:
        """Retained trace ids, newest first."""
        ids = list(reversed(self._traces.keys()))
        return ids[:limit] if limit is not None else ids

    def __len__(self) -> int:
        return len(self._traces)

    def stats(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "traces": len(self._traces),
            "spans": self.added,
            "evicted_traces": self.evicted_traces,
        }


class StageSpan:
    """One pipeline stage's execution inside a trace."""

    __slots__ = ("name", "duration_s", "annotations")

    def __init__(
        self,
        name: str,
        duration_s: Optional[float] = None,
        annotations: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.name = name
        #: Wall time the stage took, or ``None`` on reconstructed traces.
        self.duration_s = duration_s
        #: Stage-output summary (small, already-rendered values only).
        self.annotations: Dict[str, object] = dict(annotations or {})

    def describe(self) -> str:
        timing = (
            f"{self.duration_s * 1e6:>9.2f}us"
            if self.duration_s is not None
            else " " * 11
        )
        details = "  ".join(
            f"{key}={value}" for key, value in self.annotations.items()
        )
        return f"{self.name:<24}{timing}  {details}".rstrip()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StageSpan({self.name!r}, {self.duration_s})"


class DecisionTrace:
    """The full record of one mediated request.

    Mutable by design: the pipeline appends spans as stages complete,
    and the frozen ``Decision`` holds a reference to the same trace —
    the final (emit) span lands after the decision object exists.
    """

    __slots__ = (
        "subject",
        "transaction",
        "obj",
        "mode",
        "request_id",
        "trace_id",
        "span_id",
        "parent_span_id",
        "granted",
        "rationale",
        "subject_roles",
        "object_roles",
        "environment_roles",
        "matched_rules",
        "spans",
    )

    def __init__(
        self,
        subject: Optional[str],
        transaction: str,
        obj: str,
        mode: str = "",
        request_id: Optional[object] = None,
    ) -> None:
        self.subject = subject
        self.transaction = transaction
        self.obj = obj
        #: What rendered the decision: ``"compiled"`` (the engine),
        #: ``"cached"`` (the PDP's decision cache), ``"admin"``.
        self.mode = mode
        #: Wire-protocol correlation id, set by the serving layer when
        #: the request arrived over a protocol that carries one — what
        #: joins an exported span to the client's request and to the
        #: audit record of the same decision.
        self.request_id = request_id
        #: Distributed-trace identity, set by the serving layer when
        #: the request carried (or the PDP originated) a
        #: :class:`TraceContext`.  Empty strings on purely local
        #: traces — ``check --trace`` output stays unchanged.
        self.trace_id: str = ""
        self.span_id: str = ""
        self.parent_span_id: str = ""
        self.granted: Optional[bool] = None
        self.rationale: str = ""
        #: Effective subject-role name -> confidence.
        self.subject_roles: Dict[str, float] = {}
        self.object_roles: List[str] = []
        self.environment_roles: List[str] = []
        #: ``describe()`` strings of the matched permissions, in order.
        self.matched_rules: List[str] = []
        self.spans: List[StageSpan] = []

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def add_span(
        self,
        name: str,
        duration_s: Optional[float] = None,
        annotations: Optional[Mapping[str, object]] = None,
    ) -> StageSpan:
        span = StageSpan(name, duration_s, annotations)
        self.spans.append(span)
        return span

    def span(self, name: str) -> Optional[StageSpan]:
        """The first span with ``name``, or ``None``."""
        for span in self.spans:
            if span.name == name:
                return span
        return None

    @property
    def total_s(self) -> Optional[float]:
        """Sum of timed span durations, or ``None`` if none are timed."""
        timed = [s.duration_s for s in self.spans if s.duration_s is not None]
        return sum(timed) if timed else None

    def stage_timings_us(self) -> Dict[str, float]:
        """stage name -> microseconds, for timed spans only."""
        return {
            span.name: round(span.duration_s * 1e6, 3)
            for span in self.spans
            if span.duration_s is not None
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Multi-line human-readable rendering.

        This is the single formatting path behind ``Decision.explain()``
        and the CLI's ``check --trace`` / ``trace`` output.
        """
        outcome = (
            "GRANT" if self.granted else "DENY"
        ) if self.granted is not None else "?"
        lines = [
            f"request: {self.subject or '<unidentified>'} -> "
            f"{self.transaction} on {self.obj}",
            f"decision: {outcome}",
            f"rationale: {self.rationale}",
        ]
        if self.trace_id:
            line = f"trace: {self.trace_id} span={self.span_id}"
            if self.parent_span_id:
                line += f" parent={self.parent_span_id}"
            lines.insert(1, line)
        if self.spans:
            total = self.total_s
            header = "pipeline:"
            if self.mode:
                header = f"pipeline ({self.mode} strategy):"
            if total is not None:
                header += f"  [total {total * 1e6:.2f}us]"
            lines.append(header)
            lines.extend(f"  {span.describe()}" for span in self.spans)
        lines.append(
            "subject roles: "
            + ", ".join(
                f"{name}@{confidence:.2f}"
                for name, confidence in sorted(self.subject_roles.items())
            )
        )
        lines.append("object roles: " + ", ".join(sorted(self.object_roles)))
        lines.append(
            "environment roles: " + ", ".join(sorted(self.environment_roles))
        )
        if self.matched_rules:
            lines.append("matched rules:")
            lines.extend(f"  - {rule}" for rule in self.matched_rules)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecisionTrace({self.subject!r} -> {self.transaction!r} "
            f"on {self.obj!r}, spans={len(self.spans)})"
        )
