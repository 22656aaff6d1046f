"""Continuous authorization: subscribe, track, push-revoke (§4.2.2).

The paper's videophone scenario: a grant issued while an environment
role held must be *withdrawn* — not merely re-deniable — when that
role deactivates.  These tests pin the whole serving chain: the
``subscribe`` field / flag on both wire lanes, the PDP's
:class:`SessionGrantTable`, the server's push of unsolicited
``revoke`` messages (NDJSON op and KIND_REVOKE frame), and the
client-side dispatch to :meth:`RemotePDPClient.subscribe` handlers.
"""

from __future__ import annotations

import asyncio
import json
from datetime import datetime

import pytest

from repro.core import AccessRequest, GrbacPolicy, MediationEngine
from repro.env.runtime import EnvironmentRuntime
from repro.env.temporal import time_window
from repro.exceptions import ServiceError
from repro.service import (
    PDPOutcome,
    PDPServer,
    PolicyDecisionPoint,
    RemotePDPClient,
    SessionGrant,
    SessionGrantTable,
)
from repro.service.protocol import (
    FRAME_HEADER,
    InternTables,
    WireRevocation,
    decode_binary_revocation,
    decode_revocation,
    decode_subscribe,
    encode_binary_request,
    encode_binary_revocation,
    encode_request,
    encode_revocation,
    peek_binary_subscribe,
)

EVENING = datetime(2000, 1, 17, 20, 0)  # inside free-time 19:00-22:00


def build_runtime_policy():
    """§5.1-style policy on a live simulated-clock runtime."""
    runtime = EnvironmentRuntime(start=EVENING)
    policy = GrbacPolicy()
    policy.add_subject("bobby")
    policy.add_subject_role("child")
    policy.assign_subject("bobby", "child")
    policy.add_object("den/tv")
    policy.add_object_role("entertainment")
    policy.assign_object("den/tv", "entertainment")
    runtime.define_time_role(policy, "free-time", time_window("19:00", "22:00"))
    policy.grant("child", "watch", "entertainment", "free-time")
    return runtime, policy


def make_server(**pdp_kwargs):
    runtime, policy = build_runtime_policy()
    engine = MediationEngine(policy, runtime.activator)
    pdp = PolicyDecisionPoint(engine, env_revision=runtime, **pdp_kwargs)
    return runtime, PDPServer(pdp, environment=runtime)


REQUEST = AccessRequest("watch", "den/tv", subject="bobby")


# ----------------------------------------------------------------------
# Protocol codecs
# ----------------------------------------------------------------------
def test_decode_subscribe_field() -> None:
    assert decode_subscribe({}) is False
    assert decode_subscribe({"subscribe": True}) is True
    assert decode_subscribe({"subscribe": False}) is False
    with pytest.raises(ServiceError):
        decode_subscribe({"subscribe": 1})


def test_encode_request_carries_subscribe_only_when_set() -> None:
    plain = encode_request(REQUEST, 7)
    assert "subscribe" not in plain
    subscribed = encode_request(REQUEST, 7, subscribe=True)
    assert subscribed["subscribe"] is True
    assert decode_subscribe(subscribed) is True


def test_ndjson_revocation_round_trip() -> None:
    revocation = WireRevocation(
        id=42,
        subject="bobby",
        transaction="watch",
        obj="den/tv",
        roles=("free-time",),
        reason="environment role 'free-time' deactivated",
        ts=123.5,
    )
    assert decode_revocation(encode_revocation(revocation)) == revocation


def test_ndjson_revocation_rejects_malformed() -> None:
    good = encode_revocation(
        WireRevocation(1, None, "watch", "tv", ("r",), "x", 0.0)
    )
    decoded = decode_revocation(good)
    assert decoded.subject is None
    for corrupt in (
        {**good, "transaction": 3},
        {**good, "roles": "free-time"},
        {**good, "roles": [1]},
        {**good, "subject": 5},
    ):
        with pytest.raises(ServiceError):
            decode_revocation(corrupt)


def _tables() -> InternTables:
    return InternTables(
        subjects=["bobby"],
        objects=["den/tv"],
        transactions=["watch"],
        environment_roles=["free-time", "kitchen"],
    )


def test_binary_revocation_round_trip() -> None:
    tables = _tables()
    revocation = WireRevocation(
        id=9,
        subject="bobby",
        transaction="watch",
        obj="den/tv",
        roles=("free-time", "kitchen"),
        reason="flip",
        ts=77.25,
    )
    header = FRAME_HEADER.size  # encode returns a full frame
    body = encode_binary_revocation(tables, revocation)[header:]
    assert decode_binary_revocation(tables, body) == revocation
    # Anonymous grants ride as subject id -1.
    anon = WireRevocation(9, None, "watch", "den/tv", ("kitchen",), "", 0.0)
    assert (
        decode_binary_revocation(
            tables, encode_binary_revocation(tables, anon)[header:]
        ).subject
        is None
    )


def test_binary_revocation_refuses_uninterned_names() -> None:
    tables = _tables()
    minted = WireRevocation(
        1, "bobby", "watch", "den/tv", ("minted-later",), "x", 0.0
    )
    # This is the NDJSON-fallback trigger: a role bound after the
    # intern handshake cannot ride the binary lane.
    with pytest.raises(ServiceError):
        encode_binary_revocation(tables, minted)
    with pytest.raises(ServiceError):
        decode_binary_revocation(tables, b"\x00\x01")  # truncated
    with pytest.raises(ServiceError):
        decode_binary_revocation(None, b"")  # no handshake


def test_peek_binary_subscribe_flag() -> None:
    tables = _tables()
    plain = encode_binary_request(tables, REQUEST, 3)
    flagged = encode_binary_request(tables, REQUEST, 3, subscribe=True)
    header = FRAME_HEADER.size  # precedes the body these helpers inspect
    assert peek_binary_subscribe(plain[header:]) is False
    assert peek_binary_subscribe(flagged[header:]) is True
    assert peek_binary_subscribe(b"") is False
    # The flag is a pure flags bit: body length is unchanged, so
    # pre-subscription decoders walk the same offsets.
    assert len(plain) == len(flagged)


# ----------------------------------------------------------------------
# SessionGrantTable
# ----------------------------------------------------------------------
def _grant(session, grant_id, roles=("free-time",)) -> SessionGrant:
    return SessionGrant(
        session_id=session,
        grant_id=grant_id,
        subject="bobby",
        transaction="watch",
        obj="den/tv",
        roles=frozenset(roles),
    )


def test_grant_table_register_and_revoke() -> None:
    table = SessionGrantTable()
    pushed = []
    session = object()
    table.attach_session(
        session, lambda g, roles, reason, ts: pushed.append((g, roles))
    )
    assert table.register(_grant(session, 1)) is True
    assert table.grants == 1 and table.sessions == 1
    revoked = table.revoke_role("free-time", reason="flip", ts=1.0)
    assert [g.grant_id for g in revoked] == [1]
    assert pushed and pushed[0][1] == ("free-time",)
    assert table.grants == 0
    # Already swept: a second flip finds nothing.
    assert table.revoke_role("free-time", reason="flip", ts=2.0) == []


def test_grant_table_rejects_unwatchable_grants() -> None:
    table = SessionGrantTable()
    session = object()
    table.attach_session(session, lambda *a: None)
    # No supporting roles -> nothing can ever revoke it.
    assert table.register(_grant(session, 1, roles=())) is False
    # Unattached session -> no push path.
    assert table.register(_grant(object(), 2)) is False
    assert table.grants == 0


def test_grant_table_multi_role_grant_revokes_once() -> None:
    table = SessionGrantTable()
    session = object()
    pushed = []
    table.attach_session(
        session, lambda g, roles, reason, ts: pushed.append(g.grant_id)
    )
    table.register(_grant(session, 5, roles=("free-time", "kitchen")))
    revoked = table.revoke_role("kitchen", reason="left", ts=0.0)
    assert [g.grant_id for g in revoked] == [5]
    # The other posting was unindexed with the grant: no double push.
    assert table.revoke_role("free-time", reason="flip", ts=0.0) == []
    assert pushed == [5]


def test_grant_table_detach_drops_all_postings() -> None:
    table = SessionGrantTable()
    session = object()
    table.attach_session(session, lambda *a: None)
    table.register(_grant(session, 1))
    table.register(_grant(session, 2, roles=("kitchen",)))
    assert table.grants == 2
    table.detach_session(session)
    assert table.grants == 0 and table.sessions == 0
    assert table.revoke_role("free-time", reason="flip", ts=0.0) == []


def test_grant_table_push_errors_do_not_leak() -> None:
    table = SessionGrantTable()
    session = object()

    def exploding_push(grant, roles, reason, ts):
        raise RuntimeError("connection died")

    table.attach_session(session, exploding_push)
    table.register(_grant(session, 1))
    revoked = table.revoke_role("free-time", reason="flip", ts=0.0)
    assert [g.grant_id for g in revoked] == [1]
    assert table.push_errors == 1


# ----------------------------------------------------------------------
# End-to-end: both wire lanes
# ----------------------------------------------------------------------
def _run_flip_scenario(wire: str):
    async def scenario():
        runtime, server = make_server()
        async with server:
            client = await RemotePDPClient.connect(
                "127.0.0.1", server.port, wire=wire
            )
            received = asyncio.Event()
            client.subscribe(lambda r: received.set())
            response = await client.decide(REQUEST, subscribe=True)
            assert response.outcome is PDPOutcome.GRANT
            assert server.pdp.grants.grants == 1
            # 20:00 + 3h = 23:00 crosses the 22:00 boundary; the env
            # op answers only after revocations are queued.
            out = await client.env("advance", seconds=3 * 3600)
            assert out["active"] == []
            await asyncio.wait_for(received.wait(), timeout=2.0)
            revocations = list(client.revocations)
            metrics = server.pdp.metrics.snapshot()
            await client.close()
            return revocations, metrics

    return asyncio.run(scenario())


@pytest.mark.parametrize("wire", ["json", "binary"])
def test_flip_pushes_revocation(wire: str) -> None:
    revocations, metrics = _run_flip_scenario(wire)
    assert len(revocations) == 1
    revocation = revocations[0]
    assert revocation.subject == "bobby"
    assert revocation.transaction == "watch"
    assert revocation.obj == "den/tv"
    assert revocation.roles == ("free-time",)
    assert "free-time" in revocation.reason
    assert revocation.ts > 0.0
    assert metrics["counters"]["pdp.revocations"] == 1
    assert metrics["histograms"]["pdp.revocation_latency"]["count"] == 1


def test_unsubscribed_and_overridden_grants_are_not_watched() -> None:
    async def scenario():
        runtime, server = make_server()
        async with server:
            client = await RemotePDPClient.connect("127.0.0.1", server.port)
            # Plain grant: no subscribe field.
            plain = await client.decide(REQUEST)
            # Explicit env override: resolved against the caller's
            # claimed roles, not the live environment — never watched
            # even with subscribe set.
            overridden = await client.decide(
                REQUEST,
                environment_roles={"free-time"},
                subscribe=True,
            )
            # A deny registers nothing either.
            denied = await client.decide(
                AccessRequest("watch", "den/tv", subject="nobody"),
                subscribe=True,
            )
            table_size = server.pdp.grants.grants
            await client.env("advance", seconds=3 * 3600)
            await asyncio.sleep(0.1)
            revocations = list(client.revocations)
            await client.close()
            return plain, overridden, denied, table_size, revocations

    plain, overridden, denied, table_size, revocations = asyncio.run(
        scenario()
    )
    assert plain.outcome is PDPOutcome.GRANT
    assert overridden.outcome is PDPOutcome.GRANT
    assert denied.outcome is not PDPOutcome.GRANT
    assert table_size == 0
    assert revocations == []


def test_disconnect_detaches_session() -> None:
    async def scenario():
        runtime, server = make_server()
        async with server:
            client = await RemotePDPClient.connect("127.0.0.1", server.port)
            await client.decide(REQUEST, subscribe=True)
            assert server.pdp.grants.sessions == 1
            await client.close()
            for _ in range(50):
                if server.pdp.grants.sessions == 0:
                    break
                await asyncio.sleep(0.02)
            sessions, grants = (
                server.pdp.grants.sessions,
                server.pdp.grants.grants,
            )
            # The flip after disconnect must sweep nothing and push
            # nowhere (no dead-connection writes).
            runtime.clock.advance(hours=3)
            return sessions, grants, server.pdp.grants.push_errors

    sessions, grants, push_errors = asyncio.run(scenario())
    assert sessions == 0 and grants == 0
    assert push_errors == 0


def test_binary_lane_falls_back_to_ndjson_revoke(monkeypatch) -> None:
    """A withdrawal that cannot ride the binary lane still arrives.

    The real trigger is a role minted after the intern handshake;
    simulated here by making the binary encoder refuse outright.  The
    client's per-message format detection picks the NDJSON push off a
    binary connection.
    """

    def refuse(tables, revocation):
        raise ServiceError("uninterned name")

    monkeypatch.setattr(
        "repro.service.server.encode_binary_revocation", refuse
    )

    async def scenario():
        runtime, server = make_server()
        async with server:
            client = await RemotePDPClient.connect(
                "127.0.0.1", server.port, wire="binary"
            )
            received = asyncio.Event()
            client.subscribe(lambda r: received.set())
            await client.decide(REQUEST, subscribe=True)
            await client.env("advance", seconds=3 * 3600)
            await asyncio.wait_for(received.wait(), timeout=2.0)
            revocations = list(client.revocations)
            await client.close()
            return revocations

    revocations = asyncio.run(scenario())
    assert revocations and revocations[0].roles == ("free-time",)
    assert revocations[0].subject == "bobby"


def test_env_op_refuses_without_continuous_runtime(tv_policy) -> None:
    async def scenario():
        engine = MediationEngine(tv_policy)
        server = PDPServer(PolicyDecisionPoint(engine))
        async with server:
            client = await RemotePDPClient.connect("127.0.0.1", server.port)
            with pytest.raises(ServiceError, match="continuous"):
                await client.env("advance", seconds=1)
            await client.close()

    asyncio.run(scenario())


def test_env_op_set_and_move_drive_revocations() -> None:
    async def scenario():
        runtime, policy = build_runtime_policy()
        policy.add_environment_role("in-kitchen")
        runtime.define_location_role(policy, "in-kitchen", "bobby", "kitchen")
        policy.add_transaction("call")
        policy.add_object("videophone")
        policy.add_object_role("comms")
        policy.assign_object("videophone", "comms")
        policy.grant("child", "call", "comms", "in-kitchen")
        engine = MediationEngine(policy, runtime.activator)
        pdp = PolicyDecisionPoint(engine, env_revision=runtime)
        server = PDPServer(pdp, environment=runtime)
        async with server:
            client = await RemotePDPClient.connect("127.0.0.1", server.port)
            received = asyncio.Event()
            client.subscribe(lambda r: received.set())
            await client.env_move("bobby", "kitchen")
            call = await client.decide(
                AccessRequest("call", "videophone", subject="bobby"),
                subscribe=True,
            )
            assert call.outcome is PDPOutcome.GRANT
            # The hangup: bobby leaves the kitchen mid-call.
            out = await client.env_move("bobby", "den")
            assert "in-kitchen" not in out["active"]
            await asyncio.wait_for(received.wait(), timeout=2.0)
            revocations = list(client.revocations)
            await client.close()
            return revocations

    revocations = asyncio.run(scenario())
    assert len(revocations) == 1
    assert revocations[0].roles == ("in-kitchen",)
    assert revocations[0].transaction == "call"


def test_raw_ndjson_revoke_schema() -> None:
    """The on-wire push is a self-describing NDJSON object."""

    async def scenario():
        runtime, server = make_server()
        async with server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            payload = encode_request(REQUEST, 1, subscribe=True)
            writer.write(
                (json.dumps(payload) + "\n").encode()
            )
            await writer.drain()
            await reader.readline()  # the decision
            runtime.clock.advance(hours=3)
            line = await asyncio.wait_for(reader.readline(), timeout=2.0)
            writer.close()
            await writer.wait_closed()
            return json.loads(line)

    raw = asyncio.run(scenario())
    assert raw["op"] == "revoke"
    assert raw["id"] == 1
    assert raw["subject"] == "bobby"
    assert raw["object"] == "den/tv"
    assert raw["roles"] == ["free-time"]
    assert isinstance(raw["ts"], float)


# ----------------------------------------------------------------------
# An activation that arms a DENY withdraws the grants it now forbids
# ----------------------------------------------------------------------
def make_bedtime_server():
    """The runtime above plus ``bedtime`` (21:00-23:00), which arms a
    DENY on the very transaction ``free-time`` grants."""
    runtime, policy = build_runtime_policy()
    runtime.define_time_role(policy, "bedtime", time_window("21:00", "23:00"))
    policy.deny("child", "watch", "entertainment", "bedtime")
    engine = MediationEngine(policy, runtime.activator)
    pdp = PolicyDecisionPoint(engine, env_revision=runtime)
    return PDPServer(pdp, environment=runtime)


@pytest.mark.parametrize("wire", ["json", "binary"])
def test_activation_arming_a_deny_revokes_the_standing_grant(wire: str) -> None:
    async def scenario():
        server = make_bedtime_server()
        async with server:
            client = await RemotePDPClient.connect(
                "127.0.0.1", server.port, wire=wire
            )
            granted = await client.decide(REQUEST, subscribe=True)
            assert granted.outcome is PDPOutcome.GRANT  # 20:00, free-time
            # 21:30: free-time still holds, bedtime has activated.  The
            # env answer arrives behind every revoke the flip caused.
            out = await client.env("advance", seconds=5400)
            fresh = await client.decide(REQUEST)
            revocations = list(client.revocations)
            standing = server.pdp.grants.grants
            await client.close()
            return granted, out, fresh, revocations, standing

    granted, out, fresh, revocations, standing = asyncio.run(scenario())
    assert sorted(out["active"]) == ["bedtime", "free-time"]
    assert fresh.outcome is PDPOutcome.DENY
    assert standing == 0
    (revocation,) = revocations
    assert revocation.id == granted.id
    assert revocation.roles == ("bedtime",)
    assert "bedtime" in revocation.reason and "activated" in revocation.reason


def test_activation_arming_no_deny_revokes_nothing() -> None:
    """An activation no DENY is conditioned on leaves grants alone."""

    async def scenario():
        runtime, server = make_server()
        runtime.define_time_role(
            server.pdp.policy, "bedtime", time_window("21:00", "23:00")
        )
        async with server:
            client = await RemotePDPClient.connect("127.0.0.1", server.port)
            assert (await client.decide(REQUEST, subscribe=True)).granted
            await client.env("advance", seconds=5400)  # bedtime activates
            revocations = list(client.revocations)
            standing = server.pdp.grants.grants
            await client.close()
            return revocations, standing

    revocations, standing = asyncio.run(scenario())
    assert revocations == [] and standing == 1


def make_unconditioned_server():
    """An unconditioned ``grant child watch entertainment`` beside
    ``deny … when bedtime`` (21:00-23:00): at 20:00 no environment
    role the policy names is active."""
    runtime = EnvironmentRuntime(start=EVENING)
    policy = GrbacPolicy()
    policy.add_subject("bobby")
    policy.add_subject_role("child")
    policy.assign_subject("bobby", "child")
    policy.add_object("den/tv")
    policy.add_object_role("entertainment")
    policy.assign_object("den/tv", "entertainment")
    runtime.define_time_role(policy, "bedtime", time_window("21:00", "23:00"))
    policy.grant("child", "watch", "entertainment")
    policy.deny("child", "watch", "entertainment", "bedtime")
    engine = MediationEngine(policy, runtime.activator)
    pdp = PolicyDecisionPoint(engine, env_revision=runtime)
    return PDPServer(pdp, environment=runtime)


@pytest.mark.parametrize("wire", ["json", "binary"])
def test_unconditioned_subscribed_grant_is_watched(wire: str) -> None:
    """A grant no named environment role supports is still watched: the
    census always holds ``any-environment``, so the grant is posted
    under it, and a DENY its policy arms later withdraws it."""

    async def scenario():
        server = make_unconditioned_server()
        async with server:
            client = await RemotePDPClient.connect(
                "127.0.0.1", server.port, wire=wire
            )
            granted = await client.decide(REQUEST, subscribe=True)
            (watched,) = server.pdp.grants.standing()
            out = await client.env("advance", seconds=5400)  # 21:30
            fresh = await client.decide(REQUEST)
            revocations = list(client.revocations)
            standing = server.pdp.grants.grants
            await client.close()
            return granted, watched, out, fresh, revocations, standing

    granted, watched, out, fresh, revocations, standing = asyncio.run(
        scenario()
    )
    assert granted.outcome is PDPOutcome.GRANT
    assert watched.roles == frozenset({"any-environment"})
    assert out["active"] == ["bedtime"]
    assert fresh.outcome is PDPOutcome.DENY
    assert standing == 0
    (revocation,) = revocations
    assert revocation.id == granted.id
    assert revocation.roles == ("bedtime",)
