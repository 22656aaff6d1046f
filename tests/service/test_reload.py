"""Hot-reload through the PDP: atomic swap, generation keying, wiring.

The tentpole guarantees under test:

* a swap is atomic — in-flight micro-batches complete against the old
  engine, later batches see only the new one, and no request ever
  errors because a reload happened underneath it;
* pre-swap cache entries can never answer post-swap traffic, even when
  the two policies share a ``decision_revision`` (the generation
  component makes the keys disjoint by construction);
* a candidate that fails validation leaves the old policy serving,
  with an audited rejection;
* the ``reload`` wire op and ``POST /reload`` admin endpoint drive the
  same administrator.
"""

from __future__ import annotations

import asyncio
import json

from repro.core import (
    AccessRequest,
    GrbacPolicy,
    MediationEngine,
    StaticEnvironment,
)
from repro.policy.admin import PolicyAdministrator
from repro.policy.dsl import compile_policy
from repro.policy.templates import install_figure2_roles
from repro.service import (
    AdminServer,
    PDPConfig,
    PDPOutcome,
    PDPServer,
    PolicyDecisionPoint,
    RemotePDPClient,
)
from repro.store import PolicyStore

REQUEST = AccessRequest("watch", "livingroom/tv", subject="alice")
ENV = {"free-time"}


def run(coroutine):
    return asyncio.run(coroutine)


def make_pdp(policy, **config) -> PolicyDecisionPoint:
    return PolicyDecisionPoint(MediationEngine(policy), PDPConfig(**config))


def build_tv_policy(grant: bool) -> GrbacPolicy:
    """A tv_policy twin whose §5.1 rule is a grant or a deny.

    Built through identical mutation sequences, so both versions end at
    the *same* ``decision_revision`` — the collision case the cache-key
    generation component exists for.
    """
    policy = GrbacPolicy("tv")
    install_figure2_roles(policy)
    for subject, role in [("alice", "child"), ("bobby", "child")]:
        policy.add_subject(subject)
        policy.assign_subject(subject, role)
    policy.add_object("livingroom/tv")
    policy.add_object_role("entertainment-devices")
    policy.assign_object("livingroom/tv", "entertainment-devices")
    policy.add_environment_role("free-time")
    if grant:
        policy.grant("child", "watch", "entertainment-devices", "free-time")
    else:
        policy.deny("child", "watch", "entertainment-devices", "free-time")
    return policy


# ----------------------------------------------------------------------
# Generation keying
# ----------------------------------------------------------------------
def test_equal_revision_policies_cannot_share_cache_entries() -> None:
    old = build_tv_policy(grant=True)
    new = build_tv_policy(grant=False)
    assert old.decision_revision == new.decision_revision  # the trap

    pdp = make_pdp(old)

    async def scenario():
        async with pdp:
            before = await pdp.submit(REQUEST, environment_roles=ENV)
            warmed = await pdp.submit(REQUEST, environment_roles=ENV)
            pdp.swap_policy(new)
            after = await pdp.submit(REQUEST, environment_roles=ENV)
        return before, warmed, after

    before, warmed, after = run(scenario())
    assert before.granted is True
    assert warmed.cached is True  # the stale entry really was there
    # Same request, same revision number — but the generation moved,
    # so the pre-swap grant cannot be served for the deny policy.
    assert after.cached is False
    assert after.granted is False


def test_swap_bumps_generation_and_stats() -> None:
    pdp = make_pdp(build_tv_policy(grant=True))
    generation = pdp.swap_policy(build_tv_policy(grant=True))
    assert generation == pdp.generation == 1
    stats = pdp.stats()
    assert stats["generation"] == 1
    assert stats["reloads"] == 1
    assert pdp.health()["generation"] == 1


def test_swap_preserves_engine_configuration() -> None:
    policy = build_tv_policy(grant=True)
    environment = StaticEnvironment(ENV)
    engine = MediationEngine(
        policy, environment, confidence_threshold=0.25, cache_size=16
    )
    veto = lambda ctx: None  # noqa: E731
    engine.decision_constraints.append(veto)
    pdp = PolicyDecisionPoint(engine, PDPConfig())
    pdp.swap_policy(build_tv_policy(grant=True))
    pdp.swap_policy(build_tv_policy(grant=True), tenant="pinned")
    for swapped in (pdp.engine, pdp._resolve_tenant("pinned")[0]):
        assert swapped is not engine
        assert swapped.environment is environment
        assert swapped.confidence_threshold == 0.25
        assert swapped.cache_size == 16
        assert swapped.decision_constraints == [veto]
        assert swapped.decision_constraints is not engine.decision_constraints
        assert swapped.settings() == engine.settings()


TENANT_DSL = """
subject role child
object role tv-devices
environment role free-time
subject alice is child
object livingroom/tv is tv-devices
allow child to watch on tv-devices when free-time
"""


def test_every_tenant_door_serves_under_the_deployment_settings() -> None:
    """Fail-open regression: the engines a PDP builds for non-default
    tenants — pinned by ``swap_policy(tenant=)``, or resolved through
    the store — dropped the deployment's §5.2 threshold and decision
    constraints, so ``serve --threshold 0.9 --store DIR`` granted at
    confidence 0.3 for every tenant but the default one."""
    store = PolicyStore()
    store.create_tenant("stored")
    store.put("stored", TENANT_DSL)
    store.activate("stored")
    # Resolved once by a tool with no template: the store's LRU now
    # holds an engine built under threshold 0.0, which a PDP must not
    # be served.
    assert store.engine("stored")[0].confidence_threshold == 0.0
    weak = AccessRequest(
        "watch", "livingroom/tv", subject="alice", identity_confidence=0.3
    )

    def deployment(engine):
        pdp = PolicyDecisionPoint(engine, PDPConfig(), store=store)
        pdp.swap_policy(compile_policy(TENANT_DSL), tenant="pinned")

        async def ask(request):
            return [
                await pdp.submit(request, environment_roles=ENV, tenant=tenant)
                for tenant in (None, "pinned", "stored")
            ]

        return pdp, ask

    async def threshold():
        pdp, ask = deployment(
            MediationEngine(compile_policy(TENANT_DSL), confidence_threshold=0.9)
        )
        async with pdp:
            assert [r.granted for r in await ask(REQUEST)] == [True] * 3
            assert [r.granted for r in await ask(weak)] == [False] * 3
            # A default-tenant swap keeps the settings, so the stored
            # tenant's compiled engine is still the one to serve.
            builds = store.compiled.misses
            pdp.swap_policy(compile_policy(TENANT_DSL))
            assert [r.granted for r in await ask(weak)] == [False] * 3
            assert store.compiled.misses == builds

    async def constraint():
        engine = MediationEngine(compile_policy(TENANT_DSL))
        engine.decision_constraints.append(lambda ctx: "curfew")
        pdp, ask = deployment(engine)
        async with pdp:
            vetoed = await ask(REQUEST)
            assert [r.granted for r in vetoed] == [False] * 3
            assert all("constraint veto: curfew" in r.rationale for r in vetoed)

    run(threshold())
    run(constraint())


# ----------------------------------------------------------------------
# Atomicity under in-flight work
# ----------------------------------------------------------------------
def test_inflight_batch_completes_on_old_policy() -> None:
    """A batch already handed to the engine is decided by *that* engine.

    The swap lands inside ``_decide``, with the batch captured and not
    yet decided; the batch must come back with the old policy's answer,
    and the very next request must see the new policy's.
    """
    old = build_tv_policy(grant=True)
    new = build_tv_policy(grant=False)
    engine = MediationEngine(old)
    pdp = PolicyDecisionPoint(engine, PDPConfig(cache_size=0))
    swapped = []
    original = PolicyDecisionPoint._decide

    def swapping(self, requests, env_overrides, engine=None):
        if not swapped:
            swapped.append(pdp.swap_policy(new))
        return original(self, requests, env_overrides, engine)

    pdp._decide = swapping.__get__(pdp)

    async def scenario():
        async with pdp:
            before = await pdp.submit(REQUEST, environment_roles=ENV)
            after = await pdp.submit(REQUEST, environment_roles=ENV)
        return before, after

    before, after = run(scenario())
    assert swapped and pdp.generation == 1
    assert before.outcome is PDPOutcome.GRANT  # old engine's answer
    assert after.outcome is PDPOutcome.DENY  # new engine's answer


def test_reload_under_concurrent_traffic_never_errors() -> None:
    """Swaps landing mid-stream: every answer is a clean GRANT/DENY."""
    versions = [build_tv_policy(grant=True), build_tv_policy(grant=False)]
    pdp = make_pdp(versions[0], max_batch=8)
    admin = PolicyAdministrator(pdp)

    async def scenario():
        async with pdp:
            responses = []
            for wave in range(10):
                tasks = [
                    asyncio.create_task(
                        pdp.submit(REQUEST, environment_roles=ENV)
                    )
                    for _ in range(16)
                ]
                # Swap while the wave is in flight.
                pdp.swap_policy(versions[(wave + 1) % 2])
                responses.extend(await asyncio.gather(*tasks))
            return responses

    responses = run(scenario())
    assert len(responses) == 160
    assert all(
        r.outcome in (PDPOutcome.GRANT, PDPOutcome.DENY) for r in responses
    )
    assert pdp.stats()["errors"] == 0
    assert pdp.generation == 10
    assert admin.audit.stats()["attempts"] == 0  # direct swaps, no admin


# ----------------------------------------------------------------------
# Wire op
# ----------------------------------------------------------------------
NEW_RULE_DSL = """
subject role family-member
subject role parent extends family-member
subject role child extends family-member
object role entertainment-devices
environment role free-time
subject alice is child
subject grandma is parent
object livingroom/tv is entertainment-devices
allow child to watch on entertainment-devices when free-time
allow parent to watch on entertainment-devices
"""


def test_reload_wire_op_swaps_and_reports(tv_policy) -> None:
    pdp = make_pdp(tv_policy)
    administrator = PolicyAdministrator(pdp)

    async def scenario():
        async with PDPServer(pdp, administrator=administrator) as server:
            async with await RemotePDPClient.connect(
                "127.0.0.1", server.port
            ) as client:
                dry = await client.reload(
                    NEW_RULE_DSL, actor="wire-test", dry_run=True
                )
                applied = await client.reload(NEW_RULE_DSL, actor="wire-test")
                granted = await client.check(
                    "grandma", "watch", "livingroom/tv",
                    environment_roles=set(),
                )
                rejected = await client.reload("broken ???", actor="wire-test")
        return dry, applied, granted, rejected

    dry, applied, granted, rejected = run(scenario())
    assert dry["accepted"] is False and dry["dry_run"] is True
    assert dry["error"] == ""
    assert applied["accepted"] is True
    assert applied["record"]["actor"] == "wire-test"
    assert applied["record"]["generation"] == 1
    assert granted is True  # the new rule is live
    assert rejected["accepted"] is False
    assert "parse error" in rejected["error"]
    assert administrator.audit.stats() == {
        "attempts": 3,
        "accepted": 1,
        "rejected": 1,
        "retained": 3,
    }


def test_reload_wire_op_without_administrator_errors(tv_policy) -> None:
    pdp = make_pdp(tv_policy)

    async def scenario():
        async with PDPServer(pdp) as server:
            async with await RemotePDPClient.connect(
                "127.0.0.1", server.port
            ) as client:
                try:
                    await client.reload(NEW_RULE_DSL)
                except Exception as error:  # noqa: BLE001
                    return str(error)
        return None

    message = run(scenario())
    assert message is not None and "not enabled" in message


# ----------------------------------------------------------------------
# Admin HTTP endpoint
# ----------------------------------------------------------------------
async def _http(port: int, request: bytes) -> "tuple[int, bytes]":
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n", 1)[0].split()[1])
    return status, body


def _post_reload(body: bytes, target: str = "/reload") -> bytes:
    return (
        f"POST {target} HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


def test_http_reload_endpoint(tv_policy) -> None:
    pdp = make_pdp(tv_policy)
    administrator = PolicyAdministrator(pdp)

    async def scenario():
        async with AdminServer(pdp, administrator=administrator) as admin:
            ok = await _http(
                admin.port,
                _post_reload(
                    NEW_RULE_DSL.encode(), "/reload?actor=curl&dry_run=1"
                ),
            )
            applied = await _http(
                admin.port, _post_reload(NEW_RULE_DSL.encode())
            )
            bad = await _http(admin.port, _post_reload(b"broken ???"))
            empty = await _http(admin.port, _post_reload(b""))
            get = await _http(
                admin.port, b"GET /reload HTTP/1.1\r\nHost: x\r\n\r\n"
            )
        return ok, applied, bad, empty, get

    ok, applied, bad, empty, get = run(scenario())
    status, body = ok
    payload = json.loads(body)
    assert status == 200
    assert payload["dry_run"] is True and payload["error"] == ""
    assert payload["record"]["actor"] == "curl"

    status, body = applied
    assert status == 200 and json.loads(body)["accepted"] is True
    assert pdp.generation == 1

    status, body = bad
    assert status == 422
    assert "parse error" in json.loads(body)["error"]
    assert pdp.generation == 1  # rejection did not touch the policy

    assert empty[0] == 400
    assert get[0] == 405


def test_http_reload_404_without_administrator(tv_policy) -> None:
    pdp = make_pdp(tv_policy)

    async def scenario():
        async with AdminServer(pdp) as admin:
            return await _http(
                admin.port, _post_reload(NEW_RULE_DSL.encode())
            )

    status, _body = run(scenario())
    assert status == 404
