"""The traced run: spans around each layer's public functions.

``ENTRY_POINTS`` is the one table naming every product function the
traced run calls.  Each is imported lazily; an entry a later refactor
renames or removes drops its spans with a printed warning and leaves
its metrics absent.  The end-to-end run never touches this module.

For a sample of a workload's own requests the request's path is
replayed in-process, one span per public call under a synthetic root
that shares the request's id:

    client encode -> [router peek -> ring lookup] -> worker decode
      -> PDPClient.decide (child: the engine's share) -> response encode
      -> response decode

A span is ``(name, start, end, parent, request id)``; a layer's self
time is its span minus its children.  Spans stay in memory and are
written to ``perf/out/trace-<workload>.jsonl`` when the run ends.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import os
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perf import gen, sut
from perf.drive import Load

ENTRY_POINTS = {
    # service.protocol
    "InternTables": "repro.service.protocol:InternTables",
    "encode_binary_request": "repro.service.protocol:encode_binary_request",
    "decode_binary_request": "repro.service.protocol:decode_binary_request_ex",
    "encode_binary_response": "repro.service.protocol:encode_binary_response",
    "decode_binary_response": "repro.service.protocol:decode_binary_response",
    "encode_request": "repro.service.protocol:encode_request",
    "decode_request": "repro.service.protocol:decode_request",
    "encode_response": "repro.service.protocol:encode_response",
    "decode_response": "repro.service.protocol:decode_response",
    "dumps_line": "repro.service.protocol:dumps_line",
    "parse_line": "repro.service.protocol:parse_line",
    "peek_binary_request": "repro.service.protocol:peek_binary_request",
    # service.pdp + service.cache
    "PolicyDecisionPoint": "repro.service.pdp:PolicyDecisionPoint",
    "PDPClient": "repro.service.pdp:PDPClient",
    "DecisionCache": "repro.service.cache:DecisionCache",
    "SessionGrantTable": "repro.service.pdp:SessionGrantTable",
    "SessionGrant": "repro.service.pdp:SessionGrant",
    # cluster
    "ConsistentHashRing": "repro.cluster.ring:ConsistentHashRing",
    # core, policy, env
    "MediationEngine": "repro.core.mediation:MediationEngine",
    "load_policy_text": "repro.policy.admin:load_policy_text",
    "PolicyAnalyzer": "repro.policy.analysis:PolicyAnalyzer",
    "EnvironmentRuntime": "repro.env.runtime:EnvironmentRuntime",
}

REPLAY_SAMPLE = 5000
LINT_HOMES = 100
BATCH = 64
_FRAME_HEADER = 6  # magic, kind, u32 length: a frame's body starts here

Span = Tuple[str, float, float, Optional[str], object]


class Recorder:
    """Spans in memory, written out at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def span(
        self, name: str, start: float, end: float,
        parent: Optional[str], request_id: object,
    ) -> None:
        self.spans.append((name, start, end, parent, request_id))

    def request(self, request_id: object, start: float, end: float) -> None:
        """The root span of one served request (the drivers' hook)."""
        self.spans.append(("request", start, end, None, request_id))

    def durations_us(self, name: str) -> List[float]:
        return [
            (end - start) * 1e6
            for span_name, start, end, _, _ in self.spans
            if span_name == name
        ]

    def p50_us(self, name: str) -> Optional[float]:
        durations = self.durations_us(name)
        return statistics.median(durations) if durations else None

    def write(self, workload: str) -> str:
        os.makedirs(sut.OUT, exist_ok=True)
        path = os.path.join(sut.OUT, f"trace-{workload}.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request_id in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request": request_id,
                }) + "\n")
        return path


class Layers:
    """The resolved entry points; a missing one warns once."""

    def __init__(self) -> None:
        self._resolved: Dict[str, object] = {}

    def get(self, name: str) -> Optional[object]:
        if name in self._resolved:
            return self._resolved[name]
        module_name, attribute = ENTRY_POINTS[name].split(":")
        try:
            found = getattr(importlib.import_module(module_name), attribute)
        except (ImportError, AttributeError) as error:
            print(
                f"perf: layer entry point {ENTRY_POINTS[name]} is gone "
                f"({error}); its spans are dropped",
                file=sys.stderr,
            )
            found = None
        self._resolved[name] = found
        return found

    def all(self, *names: str) -> Optional[List[object]]:
        found = [self.get(name) for name in names]
        return None if any(item is None for item in found) else found


def _timed(recorder: Recorder, name: str, parent: Optional[str],
           request_id: object, call: Callable[[], object]) -> object:
    start = time.perf_counter()
    result = call()
    recorder.span(name, start, time.perf_counter(), parent, request_id)
    return result


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------
def replay_codecs(
    layers: Layers, recorder: Recorder, policy: object, load: Load,
    responses: Sequence[object],
) -> Dict[str, float]:
    """Both codecs over the sample, request and response, each way;
    returns the mean request sizes on the wire."""
    sizes: Dict[str, float] = {}
    binary = layers.all(
        "InternTables", "encode_binary_request", "decode_binary_request",
        "encode_binary_response", "decode_binary_response",
    )
    peek = layers.get("peek_binary_request")
    if binary is not None:
        tables_class, encode, decode, encode_response, decode_response = binary
        tables = tables_class.from_policy(policy)
        total = count = 0
        for i, (request, env) in enumerate(zip(load.requests, load.envs)):
            if request.role_claims:
                continue  # claims ride the NDJSON lane
            frame = _timed(
                recorder, "protocol.binary_encode_request", "request", i,
                lambda: encode(tables, request, i + 1, env=env),
            )
            body = frame[_FRAME_HEADER:]
            if peek is not None:
                _timed(recorder, "router.peek", "request", i,
                       lambda: peek(tables, body))
            _timed(recorder, "protocol.binary_decode_request", "request", i,
                   lambda: decode(tables, body))
            reply = _timed(
                recorder, "protocol.binary_encode_response", "request", i,
                lambda: encode_response(i + 1, responses[i]),
            )
            reply_body = reply[_FRAME_HEADER:]
            _timed(recorder, "protocol.binary_decode_response", "request", i,
                   lambda: decode_response(reply_body))
            total += len(frame)
            count += 1
        sizes["protocol.binary_request_bytes"] = total / max(1, count)
    ndjson = layers.all(
        "encode_request", "decode_request", "encode_response",
        "decode_response", "dumps_line", "parse_line",
    )
    if ndjson is not None:
        encode, decode, encode_response, decode_response, dumps, parse = ndjson
        total = 0
        for i, (request, env) in enumerate(zip(load.requests, load.envs)):
            line = _timed(
                recorder, "protocol.json_encode_request", "request", i,
                lambda: dumps(encode(request, i + 1, env=env)),
            )
            _timed(recorder, "protocol.json_decode_request", "request", i,
                   lambda: decode(parse(line.strip())))
            reply = _timed(
                recorder, "protocol.json_encode_response", "request", i,
                lambda: dumps(encode_response(i + 1, responses[i])),
            )
            _timed(recorder, "protocol.json_decode_response", "request", i,
                   lambda: decode_response(parse(reply.strip())))
            total += len(line)
        sizes["protocol.json_request_bytes"] = total / len(load.requests)
    return sizes


async def replay_pdp(
    layers: Layers, recorder: Recorder, policy: object, load: Load,
) -> List[object]:
    """``PDPClient.decide`` in-process, one request at a time; the
    engine's share of each non-cached answer is measured on the same
    request against a twin engine and recorded as the child span."""
    found = layers.all("MediationEngine", "PolicyDecisionPoint", "PDPClient")
    if found is None:
        return []
    engine_class, pdp_class, client_class = found
    # Both engines see the sample once, untimed, as the served engine
    # saw its warm-up: role-expansion memos warm, decision caches not.
    engine, twin = engine_class(policy), engine_class(policy)
    for warmed in (engine, twin):
        warmed.decide_batch(load.requests, environment_roles=load.envs)
    responses: List[object] = []
    clock = time.perf_counter
    async with pdp_class(engine) as pdp:
        client = client_class(pdp)
        for i, (request, env) in enumerate(zip(load.requests, load.envs)):
            start = clock()
            response = await client.decide(request, environment_roles=env)
            end = clock()
            recorder.span("pdp.decide", start, end, "request", i)
            responses.append(response)
            if not response.cached:
                start = clock()
                twin.decide(request, environment_roles=env)
                recorder.span("core.decide", start, clock(), "pdp.decide", i)
    return responses


def replay_core(
    layers: Layers, recorder: Recorder, text: str, load: Load,
) -> Dict[str, float]:
    """Parse, compile (first decision after load), single and batched
    decisions, and the seven stages through ``decide(trace=True)``."""
    found = layers.all("load_policy_text", "MediationEngine")
    if found is None:
        return {}
    load_text, engine_class = found
    clock = time.perf_counter
    values: Dict[str, float] = {}
    start = clock()
    policy = load_text(text)
    values["policy.parse_ms"] = (clock() - start) * 1e3
    engine = engine_class(policy)
    start = clock()
    engine.decide(load.requests[0], environment_roles=load.envs[0])
    values["core.compile_ms"] = (clock() - start) * 1e3
    requests, envs = load.requests, load.envs
    engine.decide_batch(requests, environment_roles=envs)  # warm the memos
    for position in range(0, len(requests) - BATCH + 1, BATCH):
        start = clock()
        engine.decide_batch(
            requests[position:position + BATCH],
            environment_roles=envs[position:position + BATCH],
        )
        end = clock()
        # One span per batch, scaled to a decision when summarized.
        recorder.span("core.decide_batch", start, end, None, position)
    stages: Dict[str, List[float]] = {}
    for i, (request, env) in enumerate(zip(requests, envs)):
        decision = engine.decide(request, environment_roles=env, trace=True)
        for stage in decision.trace.spans:
            stages.setdefault(stage.name, []).append(stage.duration_s * 1e6)
    for name, durations in stages.items():
        values[f"core.stage.{name}_us"] = statistics.median(durations)
    batches = recorder.durations_us("core.decide_batch")
    if batches:
        values["core.decide_batch_us"] = statistics.median(batches) / BATCH
    return values


def replay_lint(layers: Layers, template: gen.HomeTemplate) -> Dict[str, float]:
    found = layers.all("load_policy_text", "PolicyAnalyzer")
    if found is None:
        return {}
    load_text, analyzer = found
    policy = load_text(gen.policy_text(template, LINT_HOMES))
    start = time.perf_counter()
    analyzer(policy).lint()
    return {"policy.lint_ms": (time.perf_counter() - start) * 1e3}


def replay_cache(
    layers: Layers, recorder: Recorder, load: Load, responses: Sequence[object],
) -> None:
    cache_class = layers.get("DecisionCache")
    if cache_class is None or not responses:
        return
    cache = cache_class()
    for i, (request, env) in enumerate(zip(load.requests, load.envs)):
        key = (request.subject, request.transaction, request.obj, env)
        found = _timed(recorder, "cache.get", None, i, lambda: cache.get(key))
        if found is None:
            _timed(recorder, "cache.put", None, i,
                   lambda: cache.put(key, responses[i]))


def replay_ring(
    layers: Layers, recorder: Recorder, load: Load, workers: int = 2
) -> None:
    ring_class = layers.get("ConsistentHashRing")
    if ring_class is None:
        return
    ring = ring_class([f"w{n}" for n in range(workers)])
    for i, request in enumerate(load.requests):
        _timed(recorder, "ring.lookup", "request", i,
               lambda: ring.route(request.subject))


def replay_environment(
    layers: Layers, recorder: Recorder, homes: int, flips: int = 400,
    grants_per_role: int = 16,
) -> Dict[str, float]:
    """The videophone environment in-process: location flips, the
    active-role census, and a grant-table sweep per deactivation."""
    found = layers.all(
        "load_policy_text", "EnvironmentRuntime", "SessionGrantTable",
        "SessionGrant",
    )
    if found is None:
        return {}
    load_text, runtime_class, table_class, grant_class = found
    policy = load_text(gen.policy_text(gen.VIDEOPHONE, homes))
    runtime = runtime_class()
    role = gen.VIDEOPHONE.home_env_roles[0]
    for home in range(homes):
        runtime.define_location_role(
            policy, gen.role_name(role, home),
            gen.subject_name("kid", home), "kitchen",
        )
        runtime.location.move(gen.subject_name("kid", home), "kitchen")
    table = table_class()
    session = object()
    table.attach_session(session, lambda *pushed: None)
    clock = time.perf_counter
    grant_id = 0
    sweeps: List[float] = []
    for flip in range(flips):
        home = flip % homes
        name = gen.role_name(role, home)
        for _ in range(grants_per_role):
            grant_id += 1
            table.register(grant_class(
                session_id=session, grant_id=grant_id,
                subject=gen.subject_name("kid", home), transaction="call",
                obj=gen.object_name("videophone", home),
                roles=frozenset({name}), tenant="default",
            ))
        kid = gen.subject_name("kid", home)
        _timed(recorder, "env.flip", None, flip,
               lambda: runtime.location.move(kid, "den"))
        _timed(recorder, "env.active_roles", None, flip, runtime.active_roles)
        start = clock()
        revoked = table.revoke_role(name, "perf", time.time())
        sweeps.append((clock() - start) * 1e6 / max(1, len(revoked)))
        runtime.location.move(kid, "kitchen")
    return {"grants.sweep_us_per_grant": statistics.median(sweeps)}


# ----------------------------------------------------------------------
# One call per workload
# ----------------------------------------------------------------------
#: span name -> the metric its p50 is reported as.
SPAN_METRICS = {
    "protocol.binary_encode_request": "protocol.binary_encode_request_us",
    "protocol.binary_decode_request": "protocol.binary_decode_request_us",
    "protocol.binary_encode_response": "protocol.binary_encode_response_us",
    "protocol.binary_decode_response": "protocol.binary_decode_response_us",
    "protocol.json_encode_request": "protocol.json_encode_request_us",
    "protocol.json_decode_request": "protocol.json_decode_request_us",
    "protocol.json_encode_response": "protocol.json_encode_response_us",
    "protocol.json_decode_response": "protocol.json_decode_response_us",
    "router.peek": "router.peek_us",
    "ring.lookup": "ring.lookup_us",
    "pdp.decide": "pdp.decide_us",
    "core.decide": "core.decide_us",
    "cache.get": "cache.get_us",
    "cache.put": "cache.put_us",
    "env.flip": "env.flip_us",
    "env.active_roles": "env.active_roles_us",
}

#: The spans on a request's blocking path, by wire lane; the router's
#: two are added for the routed workload.
PATH = {
    "binary": (
        "protocol.binary_encode_request", "protocol.binary_decode_request",
        "pdp.decide", "protocol.binary_encode_response",
        "protocol.binary_decode_response",
    ),
    "json": (
        "protocol.json_encode_request", "protocol.json_decode_request",
        "pdp.decide", "protocol.json_encode_response",
        "protocol.json_decode_response",
    ),
}
ROUTER_PATH = ("router.peek", "ring.lookup")


def unit_of(metric: str) -> str:
    """Layer metrics carry their unit in their name."""
    for suffix, unit in (
        ("_us", "us"), ("_us_per_grant", "us"), ("_ms", "ms"), ("_bytes", "B"),
        ("_share", "ratio"),
    ):
        if metric.endswith(suffix):
            return unit
    raise KeyError(f"no unit for {metric}")


def replay(
    recorder: Recorder,
    template: gen.HomeTemplate,
    homes: int,
    load: Load,
    environment: bool = False,
) -> Dict[str, float]:
    """Every in-process layer measurement for one workload's sample;
    returns metric name -> value (µs p50 unless the name says else)."""
    layers = Layers()
    text = gen.policy_text(template, homes)
    sample = Load(
        load.requests[:REPLAY_SAMPLE], load.envs[:REPLAY_SAMPLE],
        load.subscribe[:REPLAY_SAMPLE],
    )
    values = replay_core(layers, recorder, text, sample)
    values.update(replay_lint(layers, template))
    load_text = layers.get("load_policy_text")
    if load_text is not None:
        policy = load_text(text)
        responses = asyncio.run(replay_pdp(layers, recorder, policy, sample))
        if responses:
            values.update(
                replay_codecs(layers, recorder, policy, sample, responses)
            )
            replay_cache(layers, recorder, sample, responses)
    replay_ring(layers, recorder, sample)
    if environment:
        values.update(replay_environment(layers, recorder, homes))
    for span_name, metric in SPAN_METRICS.items():
        p50 = recorder.p50_us(span_name)
        if p50 is not None:
            values[metric] = p50
    # Self time: the PDP's span minus the engine's share inside it
    # (cached answers have no child, so they count in full).
    decide = recorder.durations_us("pdp.decide")
    if decide:
        child = sum(recorder.durations_us("core.decide")) / len(decide)
        values["pdp.self_us"] = values["pdp.decide_us"] - child
    return values


def ledger(
    values: Dict[str, float], wire: str, routed: bool, served_p50_us: float
) -> Dict[str, float]:
    """Σ span p50 along the blocking path against the served p50; the
    residual (sockets, scheduling, queue wait) is shown, not hidden."""
    path = PATH[wire] + (ROUTER_PATH if routed else ())
    total = sum(values.get(SPAN_METRICS[name], 0.0) for name in path)
    return {
        "ledger.sum_p50_us": total,
        "ledger.residual_share": (served_p50_us - total) / served_p50_us,
        "server.hop_us": served_p50_us - total,
    }
