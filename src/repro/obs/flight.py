"""The flight recorder: always-on ring of recent decision summaries.

Traces are sampled and metrics are aggregates; neither answers the
live-debugging question *"what were the last N things the PDP actually
did, and why was Bobby just denied?"*.  The :class:`FlightRecorder`
does: a fixed-size ring buffer, one entry per served response, cheap
enough to leave on in production — one reference per answer, rendered
on read.  :meth:`FlightRecorder.add` keeps the (frozen) answer object
itself; only :meth:`FlightRecorder.dump` turns the entries a query
selects into plain dicts, so the cost of observation is paid by the
operator who reads it, not by every request.

The ring is queryable via the PDP's ``dump`` wire op and the CLI's
``repro tail`` (follow mode) / ``repro status``.  Entries carry a
monotonic ``seq`` so a follower can poll with ``since_seq`` and only
ever see each entry once, even across ring wrap-around.

Entry schema (see ``docs/OBSERVABILITY.md``)::

    {"seq": 1041, "request_id": 7, "trace_id": "9f86d081884c7d65",
     "subject": "bobby",
     "transaction": "watch", "object": "livingroom/tv",
     "outcome": "deny", "granted": false, "cached": false,
     "matched_rule": "DENY child watch ...", "rationale": "...",
     "environment_roles": ["weekday-free-time"], "latency_us": 95.0}
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

#: A retained entry: ``(seq, answer)``, where the answer is either a
#: frozen response object (:meth:`FlightRecorder.add`) or an entry
#: already rendered by :meth:`FlightRecorder.record`.
_Entry = Tuple[int, Any]


def _subject_and_outcome(item: Any) -> Tuple[Optional[str], str]:
    if isinstance(item, dict):
        return item["subject"], item["outcome"]
    return item.request.subject, item.outcome.value


def _render(seq: int, item: Any) -> Dict[str, object]:
    """One entry as a fresh plain dict (nothing shared with the ring)."""
    if isinstance(item, dict):
        entry = dict(item)
        entry["environment_roles"] = list(item["environment_roles"])
        return entry
    request = item.request
    decision = item.decision
    winner = decision.resolution.winner if decision is not None else None
    return {
        "seq": seq,
        "request_id": item.request_id,
        "trace_id": item.trace_id,
        "subject": request.subject,
        "transaction": request.transaction,
        "object": request.obj,
        "outcome": item.outcome.value,
        "granted": item.granted,
        "cached": item.cached,
        "matched_rule": (
            winner.permission.describe() if winner is not None else None
        ),
        "rationale": item.rationale,
        "environment_roles": (
            sorted(decision.environment_roles) if decision is not None else []
        ),
        "latency_us": round(item.latency_s * 1e6, 1),
    }


class FlightRecorder:
    """Fixed-capacity ring buffer of decision summaries."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._entries: Deque[_Entry] = deque(maxlen=capacity)
        #: Entries ever recorded; also the ``seq`` of the newest one.
        self.recorded = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add(self, response: Any) -> None:
        """Keep one served answer by reference.

        ``response`` is a frozen :class:`~repro.service.pdp.PDPResponse`
        (its request and decision are frozen too), so the reference is
        a faithful record; :meth:`dump` renders it.
        """
        self.recorded += 1
        self._entries.append((self.recorded, response))

    def record(
        self,
        *,
        subject: Optional[str],
        transaction: str,
        obj: str,
        outcome: str,
        granted: bool,
        cached: bool = False,
        request_id: Optional[object] = None,
        trace_id: str = "",
        matched_rule: Optional[str] = None,
        rationale: str = "",
        environment_roles: Optional[List[str]] = None,
        latency_us: float = 0.0,
    ) -> Dict[str, object]:
        """Append one summary that is not an answer (a policy reload);
        returns the stored entry.

        ``trace_id`` links the entry to the distributed trace of the
        same request when one was sampled (``""`` otherwise), so a
        ``repro tail`` line can point straight at ``/trace/<id>``.
        """
        self.recorded += 1
        entry: Dict[str, object] = {
            "seq": self.recorded,
            "request_id": request_id,
            "trace_id": trace_id,
            "subject": subject,
            "transaction": transaction,
            "object": obj,
            "outcome": outcome,
            "granted": granted,
            "cached": cached,
            "matched_rule": matched_rule,
            "rationale": rationale,
            "environment_roles": sorted(environment_roles or ()),
            "latency_us": round(latency_us, 1),
        }
        self._entries.append((self.recorded, entry))
        return entry

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def last_seq(self) -> int:
        return self.recorded

    def dump(
        self,
        limit: Optional[int] = None,
        since_seq: int = 0,
        subject: Optional[str] = None,
        outcome: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """Retained entries, oldest first, after conjunctive filters.

        Filters and ``limit`` run over the stored answers; only the
        survivors are rendered.

        :param limit: keep only the *newest* ``limit`` matches.
        :param since_seq: only entries with ``seq > since_seq`` — the
            follow-mode cursor.
        :param subject: exact subject filter.
        :param outcome: exact outcome filter (``grant``, ``deny``,
            ``deny-overload``, ``deny-timeout``, ``error``).
        """
        matches: List[_Entry] = []
        for seq, item in self._entries:
            if seq <= since_seq:
                continue
            if subject is not None or outcome is not None:
                item_subject, item_outcome = _subject_and_outcome(item)
                if subject is not None and item_subject != subject:
                    continue
                if outcome is not None and item_outcome != outcome:
                    continue
            matches.append((seq, item))
        if limit is not None and limit >= 0:
            matches = matches[-limit:] if limit else []
        return [_render(seq, item) for seq, item in matches]

    def stats(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "retained": len(self._entries),
            "recorded": self.recorded,
            "last_seq": self.last_seq,
        }
