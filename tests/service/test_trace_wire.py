"""Trace context on both wire formats.

The compatibility contract is strict: an untraced request encodes to
the exact bytes the pre-trace protocol produced, on both lanes, and a
traced one round-trips its context beside every other segment.
"""

from __future__ import annotations

import pytest

from repro.core import AccessRequest
from repro.exceptions import ServiceError
from repro.service import PDPOutcome
from repro.service.pdp import PDPResponse
from repro.obs.trace import TraceContext
from repro.service.protocol import (
    FRAME_HEADER,
    InternTables,
    decode_binary_request,
    decode_binary_request_ex,
    decode_response,
    decode_trace_context,
    encode_binary_request,
    encode_request,
    encode_response,
)

CTX = TraceContext("ab" * 8, "cd" * 8, True)


def body_of(frame: bytes) -> bytes:
    return frame[FRAME_HEADER.size:]


class TestLineLane:
    def test_untraced_payload_has_no_trace_key(self) -> None:
        request = AccessRequest("watch", "tv", subject="alice")
        untraced = encode_request(request, 1)
        assert "trace" not in untraced
        traced = encode_request(request, 1, trace=CTX)
        assert traced["trace"] == CTX.to_wire()
        assert {k: v for k, v in traced.items() if k != "trace"} == untraced

    def test_decode_trace_context(self) -> None:
        assert decode_trace_context({}) is None
        assert decode_trace_context({"trace": CTX.to_wire()}) == CTX
        with pytest.raises(ServiceError):
            decode_trace_context({"trace": 7})
        with pytest.raises(ServiceError):
            decode_trace_context({"trace": "garbage"})

    def response(self, trace_id: str = "") -> PDPResponse:
        return PDPResponse(
            request=AccessRequest("watch", "tv", subject="alice"),
            outcome=PDPOutcome.GRANT,
            granted=True,
            decision=None,
            trace_id=trace_id,
        )

    def test_response_echoes_trace_id_only_when_set(self) -> None:
        payload = encode_response(3, self.response())
        assert "trace_id" not in payload
        assert decode_response(payload).trace_id == ""
        tagged = encode_response(3, self.response(trace_id=CTX.trace_id))
        assert tagged["trace_id"] == CTX.trace_id
        assert decode_response(tagged).trace_id == CTX.trace_id

class TestBinaryLane:
    @pytest.fixture()
    def tables(self, tv_policy) -> InternTables:
        return InternTables.from_policy(tv_policy)

    def encode(self, tables: InternTables, **kwargs) -> bytes:
        request = AccessRequest("watch", "livingroom/tv", subject="alice")
        return encode_binary_request(tables, request, 7, **kwargs)

    def test_untraced_frame_is_byte_identical(self, tables) -> None:
        assert self.encode(tables) == self.encode(tables, trace=None)

    def test_traced_frame_round_trips(self, tables) -> None:
        body = body_of(self.encode(tables, trace=CTX))
        request_id, request, env, timeout_s, tenant, trace = (
            decode_binary_request_ex(tables, body)
        )
        assert request_id == 7
        assert request.subject == "alice"
        assert trace == CTX

    def test_trace_composes_with_env_and_tenant(self, tables) -> None:
        body = body_of(
            self.encode(
                tables,
                env=frozenset({"free-time"}),
                tenant="acme",
                trace=CTX,
            )
        )
        _, _, env, _, tenant, trace = decode_binary_request_ex(tables, body)
        assert env == frozenset({"free-time"})
        assert tenant == "acme"
        assert trace == CTX

    def test_legacy_decode_drops_trace_silently(self, tables) -> None:
        body = body_of(self.encode(tables, trace=CTX))
        request_id, request, env, timeout_s = decode_binary_request(
            tables, body
        )
        assert request_id == 7 and request.subject == "alice"

    def test_truncated_trace_segment_raises(self, tables) -> None:
        body = body_of(self.encode(tables, trace=CTX))
        with pytest.raises(ServiceError):
            decode_binary_request_ex(tables, body[:-3])
