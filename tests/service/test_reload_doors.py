"""One reload path: every door, every tenant kind, one verdict.

A policy reload can arrive in-process (``PolicyAdministrator.reload``),
over the wire (``reload`` op) or over HTTP (``POST /reload``), and it
can name the default tenant, a pinned one, a store-backed one or one
nobody serves.  All of it is one decision tree behind one vetting gate
writing to one audit ring, so the contract is a table: same candidate,
same tenant => same verdict through every door, the old policy still
serving after anything but an acceptance, exactly one audit record, and
an accepted reload visible in the flight recorder, the trace sink and
``pdp.reload_duration`` whichever tenant it was for.
"""

from __future__ import annotations

import asyncio
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MediationEngine
from repro.exceptions import PolicyStoreError, ServiceError
from repro.obs.export import InMemoryTraceSink
from repro.policy import to_json
from repro.policy.admin import PolicyAdministrator
from repro.policy.dsl import compile_policy
from repro.service import (
    AdminServer,
    PDPOutcome,
    PDPServer,
    PolicyDecisionPoint,
    RemotePDPClient,
)
from repro.store import PolicyStore

from tests.service.test_property_reload import build_policy, rules
from tests.service.test_tenancy import DENY_DSL, ENV, GRANT_DSL, REQUEST, http

#: A grant/deny conflict lints as a warning: blocked under fail_on="warning".
CONFLICTED_DSL = GRANT_DSL + "deny child to watch on tv-devices when free-time\n"
CANDIDATES = {
    "accepted": DENY_DSL,
    "lint-blocked": CONFLICTED_DSL,
    "unparsable": "certainly not a grbac statement\n",
    "empty": "",
}
#: Tenant kind -> the name a door is given (None: no tenant at all).
TENANTS = {"default": None, "pinned": "pinned", "stored": "stored", "unknown": "ghost"}


def run(coroutine):
    return asyncio.run(coroutine)


def deployment(administrator: bool = True) -> SimpleNamespace:
    """A PDP serving GRANT_DSL to a default, a pinned and a store-backed
    tenant, gate strict (warnings block) on the administrator and the
    store alike."""
    store = PolicyStore(fail_on="warning")
    store.create_tenant("stored")
    store.put("stored", GRANT_DSL)
    store.activate("stored")
    sink = InMemoryTraceSink()
    pdp = PolicyDecisionPoint(
        MediationEngine(compile_policy(GRANT_DSL, name="grant")),
        store=store,
        trace_sink=sink,
    )
    pdp.swap_policy(compile_policy(GRANT_DSL, name="grant"), tenant="pinned")
    return SimpleNamespace(
        pdp=pdp,
        store=store,
        sink=sink,
        administrator=(
            PolicyAdministrator(pdp, fail_on="warning") if administrator else None
        ),
    )


def reload_marks(d: SimpleNamespace) -> tuple:
    """(flight entries, trace-sink spans, duration observations) that
    installs have left so far."""
    return (
        sum(e["transaction"] == "policy.reload" for e in d.pdp.dump()),
        sum(
            stage["name"] == "pdp.reload"
            for trace in d.sink.spans
            for stage in trace["stages"]
        ),
        d.pdp.metrics.histogram("pdp.reload_duration").count,
    )


# ----------------------------------------------------------------------
# The three doors, each reduced to accepted / rejected / refused
# ----------------------------------------------------------------------
async def through_administrator(d, server, admin, tenant, text) -> str:
    result = d.administrator.reload(text, actor="table", tenant=tenant)
    if result.refusal:
        return "refused"
    return "accepted" if result.accepted else "rejected"


async def through_wire(d, server, admin, tenant, text) -> str:
    async with await RemotePDPClient.connect("127.0.0.1", server.port) as client:
        try:
            reply = await client.reload(text or None, actor="table", tenant=tenant)
        except ServiceError:
            return "refused"
    return "accepted" if reply["accepted"] else "rejected"


async def through_http(d, server, admin, tenant, text) -> str:
    query = f"?tenant={tenant}&actor=table" if tenant else "?actor=table"
    status, _ = await http(
        admin.port, f"POST /reload{query} HTTP/1.1\r\n", text.encode("utf-8")
    )
    return {200: "accepted", 422: "rejected", 400: "refused", 404: "refused"}[status]


DOORS = {
    "administrator": through_administrator,
    "wire": through_wire,
    "http": through_http,
}


def expected_verdict(kind: str, candidate: str) -> str:
    if kind == "unknown":
        return "refused"
    if candidate == "empty":  # a store-backed tenant refreshes; nothing else can
        return "accepted" if kind == "stored" else "refused"
    return "accepted" if candidate == "accepted" else "rejected"


@pytest.mark.parametrize("candidate", CANDIDATES)
@pytest.mark.parametrize("door", DOORS)
@pytest.mark.parametrize("kind", TENANTS)
def test_every_door_gives_every_tenant_the_same_verdict(kind, door, candidate):
    d = deployment()
    tenant = TENANTS[kind]

    async def scenario():
        async with PDPServer(d.pdp, administrator=d.administrator) as server:
            async with AdminServer(d.pdp, administrator=d.administrator) as admin:
                before = reload_marks(d)
                verdict = await DOORS[door](
                    d, server, admin, tenant, CANDIDATES[candidate]
                )
                served = await d.pdp.submit(
                    REQUEST, environment_roles=ENV, tenant=tenant
                )
                return verdict, served, before, reload_marks(d)

    verdict, served, before, after = run(scenario())
    assert verdict == expected_verdict(kind, candidate)
    # The serving policy afterwards: the candidate only when accepted.
    if kind == "unknown":
        assert served.outcome is PDPOutcome.DENY_UNKNOWN_TENANT
    else:
        swapped = verdict == "accepted" and candidate == "accepted"
        assert served.granted is (not swapped)
    # One record, in the one ring, naming the tenant.
    audit = d.administrator.audit
    assert audit.stats()["attempts"] == len(audit) == 1
    assert audit.last.tenant == tenant
    assert audit.last.accepted is (verdict == "accepted")
    assert bool(audit.last.error) is (verdict != "accepted")
    # An install — any tenant's — is observable; a non-install leaves nothing.
    installs = 1 if verdict == "accepted" else 0
    assert tuple(b - a for a, b in zip(before, after)) == (installs,) * 3


# ----------------------------------------------------------------------
# Defect 1: no administrator => no mutation, for any tenant
# ----------------------------------------------------------------------
@pytest.mark.parametrize("wire", ["json", "binary"])
@pytest.mark.parametrize("text", [DENY_DSL, None], ids=["body", "refresh-only"])
def test_store_backed_reload_is_refused_without_an_administrator(wire, text):
    d = deployment(administrator=False)

    async def scenario():
        async with PDPServer(d.pdp) as server:
            async with await RemotePDPClient.connect(
                "127.0.0.1", server.port, wire=wire
            ) as client:
                errors = []
                for tenant in (None, "stored"):
                    with pytest.raises(ServiceError) as refused:
                        await client.reload(text, actor="intruder", tenant=tenant)
                    errors.append(str(refused.value))
                return errors

    default_error, tenant_error = run(scenario())
    assert "policy administration is not enabled" in default_error
    assert tenant_error == default_error
    assert d.store.active_version("stored") == 1
    assert len(d.store.lineage("stored").versions) == 1


# ----------------------------------------------------------------------
# Defect 2: one ring, whichever door
# ----------------------------------------------------------------------
def test_wire_http_and_two_phase_reloads_share_the_deployment_ring():
    d = deployment()

    async def scenario():
        async with PDPServer(d.pdp, administrator=d.administrator) as server:
            async with AdminServer(d.pdp, administrator=d.administrator) as admin:
                async with await RemotePDPClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    wire = await client.reload(DENY_DSL, actor="w", tenant="pinned")
                    _, body = await http(
                        admin.port,
                        "POST /reload?tenant=pinned&actor=h HTTP/1.1\r\n",
                        GRANT_DSL.encode("utf-8"),
                    )
                    prepared = await client.reload_prepare(DENY_DSL, actor="p")
                    await client.reload_activate(prepared["token"], actor="p")
                return wire, json.loads(body)

    wire, over_http = run(scenario())
    assert wire["record"]["tenant"] == over_http["record"]["tenant"] == "pinned"
    assert (wire["record"]["sequence"], over_http["record"]["sequence"]) == (1, 2)
    records = d.administrator.audit.records()
    assert [(r.action, r.actor, r.tenant) for r in records] == [
        ("reload", "w", "pinned"),
        ("reload", "h", "pinned"),
        ("prepare", "p", None),
        ("activate", "p", None),
    ]
    assert "tenant" not in records[-1].to_dict()  # default replies unchanged
    assert d.administrator.audit.stats()["attempts"] == 4


# ----------------------------------------------------------------------
# Defect 3: tenant installs are as visible as default ones
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "install",
    [
        lambda pdp: pdp.swap_policy(compile_policy(DENY_DSL)),
        lambda pdp: pdp.swap_policy(compile_policy(DENY_DSL), tenant="pinned"),
        lambda pdp: pdp.refresh_tenant("stored"),
    ],
    ids=["default-swap", "pinned-swap", "store-refresh"],
)
def test_every_install_leaves_a_flight_entry_a_span_and_a_duration(install):
    d = deployment()
    before = reload_marks(d)
    generation = install(d.pdp)
    assert tuple(b - a for a, b in zip(before, reload_marks(d))) == (1, 1, 1)
    entry = d.pdp.dump()[-1]
    assert entry["transaction"] == "policy.reload" and entry["outcome"] == "reload"
    assert f"generation {generation}" in entry["rationale"]


# ----------------------------------------------------------------------
# One gate: the store and the administrator cannot disagree
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    rule_list=rules,
    fail_on=st.sampled_from([None, "error", "warning", "info"]),
    junk=st.one_of(st.none(), st.text(max_size=20)),
)
def test_store_activate_accepts_iff_the_administrator_validates(
    rule_list, fail_on, junk
):
    """Valid generated policies — whose random grant/deny pairs carry
    lint findings of their own — plus a mutation that cannot parse."""
    text = to_json(build_policy(rule_list))
    if junk is not None:
        text = "certainly not a grbac statement\n" + junk + text
    pdp = PolicyDecisionPoint(MediationEngine(build_policy([], name="live")))
    verdict = PolicyAdministrator(pdp, fail_on=fail_on).validate(text)
    store = PolicyStore(fail_on=fail_on)
    store.create_tenant("t")
    store.put("t", text)
    try:
        store.activate("t")
    except PolicyStoreError as refused:
        assert verdict.error and verdict.error in str(refused)
    else:
        assert not verdict.error
        assert store.active_version("t") == 1
