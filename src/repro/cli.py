"""Command-line interface for GRBAC policy work.

The homeowner-facing surface (§3's usability requirement) for people
who prefer a terminal over a Python prompt::

    python -m repro.cli show  policy.grbac
    python -m repro.cli lint  policy.grbac
    python -m repro.cli check policy.grbac alice watch livingroom/tv \\
           --env weekday-free-time --explain
    python -m repro.cli trace policy.grbac alice watch livingroom/tv \\
           --env weekday-free-time
    python -m repro.cli export policy.grbac -o policy.json
    python -m repro.cli demo  s51
    python -m repro.cli bench policy.grbac --requests 5000 --mode compiled
    python -m repro.cli serve policy.grbac --port 7471 --admin-port 9471 \\
           --trace-sample-rate 0.05 --trace-file traces.jsonl \\
           --audit-file audit.jsonl
    python -m repro.cli loadgen policy.grbac --connect 127.0.0.1:7471 \\
           --requests 200 --verify
    python -m repro.cli reload new-policy.grbac --connect 127.0.0.1:7471 \\
           --actor alice --dry-run
    python -m repro.cli status --connect 127.0.0.1:7471 --check
    python -m repro.cli tail --connect 127.0.0.1:7471 --follow
    python -m repro.cli trace 0123456789abcdef --connect 127.0.0.1:9470
    python -m repro.cli audit verify audit.jsonl
    python -m repro.cli audit query audit.jsonl --subject alice \\
           --since 2026-08-08T00:00:00 --denied
    python -m repro.cli audit pack audit.jsonl --subject alice \\
           -o evidence.json --sign-key swordfish --key-id ops-1
    python -m repro.cli tenant create unit-9 --store ./policies
    python -m repro.cli tenant put unit-9 policy.grbac --store ./policies \\
           --activate
    python -m repro.cli tenant rollback unit-9 --store ./policies
    python -m repro.cli serve --store ./policies --port 7471
    python -m repro.cli loadgen policy.grbac --connect 127.0.0.1:7471 \\
           --tenant unit-9

Policies are authored in the text DSL (see
:mod:`repro.policy.dsl.parser` for the grammar); ``export`` converts
to the JSON document format of :mod:`repro.policy.serialize`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import AccessRequest, GrbacPolicy, MediationEngine
from repro.exceptions import GrbacError
from repro.policy.analysis import PolicyAnalyzer
from repro.policy.dsl import compile_policy
from repro.policy.serialize import to_json


def _load_policy(path: str) -> GrbacPolicy:
    with open(path, "r", encoding="utf-8") as handle:
        return compile_policy(handle.read(), name=path)


def _cmd_show(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    stats = policy.stats()
    print(f"policy {policy.name!r}")
    for key, value in stats.items():
        print(f"  {key:<22} {value}")
    print(f"  precedence             {policy.precedence.value}")
    print(f"  default                {policy.default_sign.value}")
    print("\nrules:")
    for permission in policy.permissions():
        print(f"  {permission.describe()}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    findings = PolicyAnalyzer(policy).lint()
    if not findings:
        print("clean: no conflicts, shadowed rules, or unreachable rules")
        return 0
    for finding in findings:
        print(finding.describe())
    has_errors = any(finding.severity == "error" for finding in findings)
    return 1 if has_errors else 0


def _print_engine_stats(engine: MediationEngine) -> None:
    # stats() syncs the engine's hot-path tallies into the metrics
    # registry; the registry render is the canonical stats output
    # (counters + any per-stage latency histograms tracing recorded).
    stats = engine.stats()
    print("engine stats:")
    for key in (
        "cache_entries",
        "compile_time_s",
        "snapshot_revision",
        "compiled_rules",
        "subject_profiles",
        "object_profiles",
        "environment_profiles",
    ):
        value = stats[key]
        if isinstance(value, float):
            print(f"  {key:<32} {value:.6f}")
        else:
            print(f"  {key:<32} {value}")
    print(engine.metrics.render())


def _cmd_check(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    engine = MediationEngine(
        policy, confidence_threshold=args.threshold
    )
    request = AccessRequest(
        transaction=args.transaction,
        obj=args.object,
        subject=args.subject,
        identity_confidence=args.confidence,
    )
    want_trace = getattr(args, "trace", False)
    decision = engine.decide(
        request, environment_roles=set(args.env), trace=want_trace
    )
    if want_trace:
        # The recorded pipeline trace carries the decision line, the
        # per-stage spans with timings, and the role/rule facts.
        print(decision.explain())
    elif args.explain:
        print(decision.explain())
    else:
        print("GRANT" if decision.granted else "DENY")
    if args.diagnose:
        print("candidate rules:")
        diagnoses = engine.diagnose(request, environment_roles=set(args.env))
        if not diagnoses:
            print(f"  (no rule mentions transaction {args.transaction!r})")
        for diagnosis in diagnoses:
            print(f"  {diagnosis.describe()}")
    if args.stats:
        _print_engine_stats(engine)
    return 0 if decision.granted else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.workload.generator import generate_requests, replay_requests

    policy = _load_policy(args.policy)
    engine = MediationEngine(policy, cache_size=args.cache_size)
    generated = generate_requests(policy, args.requests, seed=args.seed)
    # Warm compile/memos outside the timed window, then measure a
    # steady-state batch replay.
    replay_requests(engine, generated[: min(len(generated), 10)])
    start = time.perf_counter()
    decisions = replay_requests(engine, generated, batch=not args.no_batch)
    elapsed = time.perf_counter() - start
    grants = sum(1 for decision in decisions if decision.granted)
    per_decision_us = elapsed / len(decisions) * 1e6 if decisions else 0.0
    throughput = len(decisions) / elapsed if elapsed > 0 else float("inf")
    print(
        f"{len(decisions)} decisions ({grants} grants, "
        f"{len(decisions) - grants} denies) in {elapsed * 1e3:.2f} ms"
    )
    print(f"  {per_decision_us:.2f} us/decision, {throughput:,.0f} decisions/s")
    _print_engine_stats(engine)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import JsonlTraceSink, SloTracker
    from repro.service import (
        AdminServer,
        PDPConfig,
        PDPServer,
        PolicyDecisionPoint,
    )

    store = None
    if args.store:
        from repro.store import DEFAULT_TENANT, PolicyStore

        store = PolicyStore(
            args.store, reader=getattr(args, "store_reader", False)
        )
    if args.policy:
        policy = _load_policy(args.policy)
    elif (
        store is not None
        and DEFAULT_TENANT in store
        and store.active_version(DEFAULT_TENANT) is not None
    ):
        # No policy file: the store's active "default" version is the
        # boot policy, so a store-only deployment needs no files
        # outside the store directory.
        policy = store.policy(DEFAULT_TENANT)
    else:
        raise GrbacError(
            "serve needs a policy file argument, or --store pointing at "
            "a store whose 'default' tenant has an active version"
        )
    if args.watch and not args.policy:
        raise GrbacError("--watch needs a policy file argument to watch")
    environment = None
    if getattr(args, "continuous", False):
        from repro.env.runtime import EnvironmentRuntime

        if args.sim_start:
            from datetime import datetime as _datetime

            environment = EnvironmentRuntime(
                start=_datetime.fromisoformat(args.sim_start)
            )
        else:
            from repro.env.clock import SystemClock

            environment = EnvironmentRuntime(clock=SystemClock())
    if environment is not None:
        engine = MediationEngine(
            policy, environment.activator, confidence_threshold=args.threshold
        )
        environment.bind_metrics(engine.metrics)
    else:
        engine = MediationEngine(policy, confidence_threshold=args.threshold)
    config = PDPConfig(
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        cache_size=args.cache_size,
        default_timeout_s=(
            args.timeout_ms / 1000.0 if args.timeout_ms else None
        ),
        trace_sample_rate=args.trace_sample_rate,
        flight_capacity=args.flight_capacity,
    )
    sink = JsonlTraceSink(args.trace_file) if args.trace_file else None
    audit_writer = None
    if args.audit_file:
        from repro.core.audit import HashChainWriter

        audit_writer = HashChainWriter(args.audit_file)
    slo = SloTracker(
        availability_target=args.slo_availability,
        latency_threshold_s=args.slo_latency_ms / 1000.0,
        metrics=engine.metrics,
    )

    async def run() -> None:
        from repro.policy.admin import PolicyAdministrator, PolicyFileWatcher

        pdp = PolicyDecisionPoint(
            engine,
            config,
            env_revision=environment,
            trace_sink=sink,
            slo=slo,
            store=store,
            audit_writer=audit_writer,
        )
        administrator = PolicyAdministrator(pdp)
        server = PDPServer(
            pdp,
            host=args.host,
            port=args.port,
            administrator=administrator,
            drain_timeout_s=getattr(args, "drain_timeout", None),
            environment=environment,
        )
        await server.start()
        # SIGTERM/SIGINT trigger the same graceful drain Ctrl-C does:
        # stop accepting, finish admitted work (bounded by
        # --drain-timeout), then exit 0 — what a supervisor expects.
        server.install_signal_handlers()
        admin = None
        if args.admin_port is not None:
            admin = AdminServer(
                pdp,
                host=args.host,
                port=args.admin_port,
                administrator=administrator,
            )
            await admin.start()
        watcher_task = None
        if args.watch:
            def announce(result) -> None:
                print(f"policy file reload: {result.record.describe()}",
                      flush=True)

            watcher = PolicyFileWatcher(
                args.policy,
                administrator,
                interval_s=args.watch_interval,
                on_reload=announce,
            )
            watcher_task = asyncio.get_running_loop().create_task(
                watcher.run_forever()
            )
        # The "listening" line is the readiness signal scripts (and the
        # CI smoke job) wait for before pointing loadgen at us.
        source = args.policy if args.policy else f"store:{args.store}"
        print(f"serving {source!r} listening on "
              f"{args.host}:{server.port}", flush=True)
        if environment is not None:
            clock_kind = (
                f"simulated clock at {environment.now().isoformat()}"
                if args.sim_start
                else "system clock"
            )
            print(f"continuous authorization enabled ({clock_kind})",
                  flush=True)
        if store is not None:
            print(f"policy store {args.store!r}: "
                  f"{len(store.tenants())} tenant(s)", flush=True)
        if admin is not None:
            print(f"admin http listening on {args.host}:{admin.port}",
                  flush=True)
        if args.watch:
            print(f"watching {args.policy!r} for changes every "
                  f"{args.watch_interval}s", flush=True)
        if sink is not None:
            print(f"exporting sampled traces (rate "
                  f"{args.trace_sample_rate}) to {args.trace_file}",
                  flush=True)
        if audit_writer is not None:
            print(f"hash-chained audit log at {args.audit_file!r}",
                  flush=True)
        try:
            await server.serve_forever()
        finally:
            if watcher_task is not None:
                watcher_task.cancel()
            if admin is not None:
                await admin.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted: admitted requests drained, server stopped")
    finally:
        if sink is not None:
            sink.close()
        if audit_writer is not None:
            audit_writer.close()
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """Hold one subscribed grant open and print pushed revocations."""
    import asyncio
    import time as _time

    from repro.core.decision import AccessRequest
    from repro.service import RemotePDPClient

    async def run() -> int:
        revoked = asyncio.Event()

        def on_revoke(revocation) -> None:
            latency_ms = max(0.0, _time.time() - revocation.ts) * 1000.0
            print(
                f"REVOKED id={revocation.id} "
                f"subject={revocation.subject} "
                f"{revocation.transaction}:{revocation.obj} "
                f"roles={','.join(revocation.roles)} "
                f"reason={revocation.reason!r} "
                f"latency_ms={latency_ms:.1f}",
                flush=True,
            )
            revoked.set()

        client = await RemotePDPClient.connect(args.host, args.port)
        try:
            client.subscribe(on_revoke)
            request = AccessRequest(
                transaction=args.transaction,
                obj=args.object,
                subject=args.subject,
            )
            response = await client.decide(request, subscribe=True)
            print(
                f"{response.outcome.value}: {args.subject} "
                f"{args.transaction}:{args.object} — {response.rationale}",
                flush=True,
            )
            if not response.granted:
                return 1
            print("watching for revocation (Ctrl-C to stop)", flush=True)
            try:
                await asyncio.wait_for(revoked.wait(), timeout=args.duration)
            except asyncio.TimeoutError:
                print("watch duration elapsed; grant still standing",
                      flush=True)
            return 0
        finally:
            await client.close()

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("watch interrupted")
        return 0


def _cmd_reload(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import RemotePDPClient

    host, port = _parse_connect(args.connect)
    with open(args.policy, "r", encoding="utf-8") as handle:
        policy_text = handle.read()

    async def run() -> int:
        async with await RemotePDPClient.connect(host, port) as client:
            result = await client.reload(
                policy_text, actor=args.actor, dry_run=args.dry_run
            )
        record = result["record"]
        if result["error"]:
            print(f"rejected: {result['error']}")
        elif args.dry_run:
            print(
                f"validated: candidate {record.get('policy')!r} would be "
                f"accepted (no swap performed)"
            )
        else:
            print(
                f"reloaded: policy {record.get('policy')!r} now serving "
                f"(generation {record.get('generation')}, "
                f"revision {record.get('new_revision')})"
            )
        for finding in record.get("findings", []):
            print(f"  lint: {finding}")
        summary = record.get("diff_summary", "")
        if summary:
            print("diff against previous policy:")
            for line in summary.splitlines():
                print(f"  {line}")
        return 1 if result["error"] else 0

    return asyncio.run(run())


def _parse_connect(text: str) -> "tuple[str, int]":
    """Split a HOST:PORT target (host defaults to loopback)."""
    host, _, port_text = text.rpartition(":")
    try:
        return host or "127.0.0.1", int(port_text)
    except ValueError:
        raise GrbacError(
            f"invalid --connect target {text!r} (expected HOST:PORT)"
        ) from None


def _cmd_status(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import PrometheusParseError, parse_prometheus
    from repro.service import RemotePDPClient

    host, port = _parse_connect(args.connect)

    async def fetch():
        client = await RemotePDPClient.connect(host, port)
        try:
            return (
                await client.health(),
                await client.ready(),
                await client.stats(),
                await client.metrics(),
            )
        finally:
            await client.close()

    health, ready, stats, metrics = asyncio.run(fetch())

    problems = []
    try:
        families = parse_prometheus(metrics["prometheus"])
    except PrometheusParseError as error:
        families = {}
        problems.append(f"malformed metrics exposition: {error}")
    if not health.get("healthy"):
        problems.append("health reports unhealthy")
    if not ready.get("ready"):
        problems.append("not ready (stopped, draining, or saturated)")

    print(f"pdp {host}:{port}  policy {health.get('policy')!r} "
          f"(revision {health.get('policy_revision')})")
    print(f"  healthy {health.get('healthy')}  ready {ready.get('ready')}  "
          f"uptime {health.get('uptime_s')} s  "
          f"queue {ready.get('queue_depth')}/{ready.get('max_queue')}")
    print(f"  requests {stats.get('requests')}  "
          f"decided {stats.get('decided')}  "
          f"cache hit rate {stats.get('cache_hit_rate')}")
    print(f"  shed {stats.get('shed')}  timeouts {stats.get('timeouts')}  "
          f"errors {stats.get('errors')}  "
          f"traces sampled {stats.get('traces_sampled')}")
    slo = health.get("slo")
    if isinstance(slo, dict):
        for name in ("availability", "latency"):
            objective = slo.get(name)
            if not isinstance(objective, dict):
                continue
            met = "met" if objective.get("met") else "MISSED"
            print(
                f"  slo {name:<13} {met}: ratio {objective.get('ratio')} "
                f"vs target {objective.get('target')} "
                f"(burn rate {objective.get('burn_rate')}, "
                f"window {objective.get('window_total')} requests)"
            )
    print(f"  metric families scraped: {len(families)}")
    if problems:
        for problem in problems:
            print(f"PROBLEM: {problem}", file=sys.stderr)
        if args.check:
            return 1
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import RemotePDPClient

    host, port = _parse_connect(args.connect)

    def render(entry: dict) -> str:
        flags = []
        if entry.get("cached"):
            flags.append("cached")
        if entry.get("request_id") is not None:
            flags.append(f"id={entry['request_id']}")
        if entry.get("trace_id"):
            # Pasteable into GET /trace/<id> / `repro trace <id>`.
            flags.append(f"trace={entry['trace_id']}")
        suffix = f"  [{' '.join(flags)}]" if flags else ""
        return (
            f"#{entry.get('seq'):<6} {entry.get('outcome'):<14} "
            f"{entry.get('subject')} {entry.get('transaction')} "
            f"{entry.get('object')}  {entry.get('latency_us', 0):.0f} us"
            f"{suffix}"
        )

    async def run() -> None:
        client = await RemotePDPClient.connect(host, port)
        try:
            cursor = 0
            entries = await client.dump(
                limit=args.limit,
                subject=args.subject,
                outcome=args.outcome,
            )
            for entry in entries:
                print(render(entry), flush=True)
                cursor = max(cursor, int(entry.get("seq", 0)))
            while args.follow:
                await asyncio.sleep(args.interval)
                entries = await client.dump(
                    since_seq=cursor,
                    subject=args.subject,
                    outcome=args.outcome,
                )
                for entry in entries:
                    print(render(entry), flush=True)
                    cursor = max(cursor, int(entry.get("seq", 0)))
        finally:
            await client.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json as json_module

    from repro.service import (
        LoadgenConfig,
        PDPClient,
        PDPConfig,
        PolicyDecisionPoint,
        RemotePDPClient,
        build_stream,
        compute_expected,
        run_loadgen,
        run_loadgen_endpoints,
    )

    if args.connections < 1:
        raise GrbacError("--connections must be >= 1")
    policy = _load_policy(args.policy)
    config = LoadgenConfig(
        requests=args.requests,
        concurrency=args.concurrency,
        seed=args.seed,
        repeat=args.repeat,
        tenant=args.tenant,
        trace_sample_rate=args.trace_sample_rate,
    )
    stream = build_stream(policy, config)
    expected = compute_expected(policy, stream) if args.verify else None
    endpoints = list(args.connect or ())
    # Repeating one endpoint is allowed (more independent closed loops
    # against one target); label repeats uniquely so results don't merge.
    labels = [
        endpoint
        if endpoints.count(endpoint) == 1
        else f"{endpoint}#{index}"
        for index, endpoint in enumerate(endpoints)
    ]

    async def run():
        if endpoints:
            clients_by_endpoint = {}
            try:
                for label, endpoint in zip(labels, endpoints):
                    host, port = _parse_connect(endpoint)
                    clients_by_endpoint[label] = [
                        await RemotePDPClient.connect(
                            host, port, wire=args.wire
                        )
                        for _ in range(args.connections)
                    ]
                if len(endpoints) == 1 and args.connections == 1:
                    only = clients_by_endpoint[labels[0]][0]
                    return (
                        await run_loadgen(only, stream, config, expected),
                        None,
                    )
                return await run_loadgen_endpoints(
                    clients_by_endpoint, stream, config, expected
                )
            finally:
                for clients in clients_by_endpoint.values():
                    for client in clients:
                        await client.close()
        engine = MediationEngine(policy)
        pdp = PolicyDecisionPoint(
            engine,
            PDPConfig(
                max_batch=1 if args.unbatched else args.max_batch,
                cache_size=0 if args.no_cache else args.cache_size,
            ),
        )
        async with pdp:
            return (
                await run_loadgen(PDPClient(pdp), stream, config, expected),
                None,
            )

    result, per_endpoint = asyncio.run(run())
    wire = args.wire if endpoints else "in-process"
    target = (
        f"{', '.join(endpoints)} [{args.wire} wire, "
        f"{args.connections} conn/endpoint]"
        if endpoints
        else "in-process PDP"
    )
    mode = "unbatched" if args.unbatched else "micro-batched"
    print(f"loadgen against {target} ({mode}):")
    print(result.describe())
    if per_endpoint is not None:
        for label in labels:
            one = per_endpoint[label]
            print(
                f"  {label}: {one.completed}/{one.sent} completed  "
                f"{one.throughput_rps:,.0f} req/s  "
                f"p95 {one.latency_us(0.95):.1f} us  "
                f"shed {one.shed}  unavailable {one.unavailable}"
            )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(result.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    if args.report:
        import time as time_module

        # Trajectory accumulation: append this run's client-side view
        # (percentiles, shed/timeout counts) to the report's history
        # instead of overwriting it.
        payload = {}
        try:
            with open(args.report, "r", encoding="utf-8") as handle:
                payload = json_module.load(handle)
            if not isinstance(payload, dict):
                payload = {}
        except (FileNotFoundError, json_module.JSONDecodeError):
            payload = {}
        trajectory = payload.get("trajectory")
        if not isinstance(trajectory, list):
            trajectory = []
        trajectory.append(
            {
                "timestamp": time_module.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time_module.gmtime()
                ),
                "target": target,
                "mode": mode,
                "wire": wire,
                "verified": args.verify,
                **result.to_dict(),
            }
        )
        payload["trajectory"] = trajectory[-50:]
        with open(args.report, "w", encoding="utf-8") as handle:
            json_module.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"appended run #{len(trajectory)} to {args.report}")
    if not result.ok:
        print(
            f"FAIL: {result.mismatches} stale answers, "
            f"{result.dropped} dropped without an explicit shed",
            file=sys.stderr,
        )
        return 1
    return 0


def _cluster_http(
    connect: str, path: str, body: "Optional[bytes]" = None
) -> "tuple[int, dict]":
    """One request against a cluster admin endpoint; ``(status, json)``."""
    import json as json_module
    import urllib.error
    import urllib.request

    host, port = _parse_connect(connect)
    url = f"http://{host}:{port}{path}"
    request = urllib.request.Request(
        url, data=body, method="GET" if body is None else "POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json_module.loads(response.read())
    except urllib.error.HTTPError as error:
        raw = error.read()
        try:
            return error.code, json_module.loads(raw)
        except json_module.JSONDecodeError:
            return error.code, {"error": raw.decode("utf-8", "replace")}
    except (urllib.error.URLError, OSError) as error:
        raise GrbacError(
            f"cluster admin at {connect} unreachable: {error}"
        ) from None


def _cmd_cluster_start(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.cluster import ClusterAdminServer, ClusterSupervisor

    async def run() -> None:
        supervisor = ClusterSupervisor(
            policy_path=args.policy,
            store_dir=args.store,
            workers=args.workers,
            host=args.host,
            router_port=args.port,
            vnodes=args.vnodes,
            drain_timeout_s=args.drain_timeout,
            worker_args=args.worker_arg or [],
            trace_sample_rate=args.trace_sample_rate,
            audit_dir=args.audit_dir,
        )
        # Signal handlers go in before the first worker is forked: a
        # SIGTERM that found the default disposition would kill the
        # supervisor mid-start and orphan every worker already up.  A
        # signal during start-up lets it finish, then drains at once.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
            loop.add_signal_handler(signal.SIGINT, stop.set)
        except (NotImplementedError, RuntimeError):
            pass
        await supervisor.start()
        admin = ClusterAdminServer(
            supervisor, host=args.host, port=args.admin_port
        )
        await admin.start()
        source = args.policy if args.policy else f"store:{args.store}"
        # Readiness lines, same contract as `serve`: scripts wait for
        # "listening on HOST:PORT" before pointing loadgen at us.
        print(
            f"cluster of {args.workers} serving {source!r} "
            f"listening on {args.host}:{supervisor.router.port}",
            flush=True,
        )
        print(
            f"cluster admin http listening on {args.host}:{admin.port}",
            flush=True,
        )
        if args.trace_sample_rate > 0:
            print(
                f"workers originating traces at rate "
                f"{args.trace_sample_rate} (GET /trace/<id>)",
                flush=True,
            )
        if args.audit_dir:
            print(
                f"per-worker hash-chained audit logs in "
                f"{args.audit_dir!r}",
                flush=True,
            )
        for name, worker in sorted(supervisor.status()["workers"].items()):
            print(
                f"  worker {name} pid {worker['pid']} on port "
                f"{worker['port']} (admin {worker['admin_port']})",
                flush=True,
            )
        stop_wait = loop.create_task(stop.wait())
        drain_wait = loop.create_task(admin.drain_requested.wait())
        try:
            await asyncio.wait(
                {stop_wait, drain_wait},
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            stop_wait.cancel()
            drain_wait.cancel()
        print("draining cluster", flush=True)
        await admin.stop()
        await supervisor.stop(drain=True)
        print("cluster stopped", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    _, status = _cluster_http(args.connect, "/status")
    code, health = _cluster_http(args.connect, "/health")
    healthy = health.get("healthy", False)
    print(f"cluster {'healthy' if healthy else 'UNHEALTHY'} "
          f"(generations {health.get('generations')})")
    for name, worker in sorted(status.get("workers", {}).items()):
        router_row = (
            status.get("router", {}).get("workers", {}).get(name, {})
        )
        print(
            f"  {name}: {worker['state']}  pid {worker['pid']}  "
            f"port {worker['port']}  restarts {worker['restarts']}  "
            f"routed {router_row.get('routed', 0)}  "
            f"membership {router_row.get('state', '?')}"
        )
    router = status.get("router", {})
    print(
        f"  router: {router.get('connections', 0)} connections, "
        f"{router.get('in_flight', 0)} ops in flight"
    )
    reloads = status.get("reloads", {})
    print(
        f"  reloads: {reloads.get('accepted', 0)} accepted, "
        f"{reloads.get('rejected', 0)} rejected"
    )
    return 0 if healthy else 1


def _cmd_cluster_reload(args: argparse.Namespace) -> int:
    with open(args.policy, "r", encoding="utf-8") as handle:
        policy_text = handle.read()
    query = f"?actor={args.actor}" if args.actor else ""
    if args.dry_run:
        query += ("&" if query else "?") + "dry_run=1"
    code, result = _cluster_http(
        args.connect, f"/reload{query}", policy_text.encode("utf-8")
    )
    accepted = result.get("accepted", False)
    phase = result.get("phase", "?")
    verdict = "accepted" if accepted else "REJECTED"
    print(f"cluster reload {verdict} (phase: {phase}, http {code})")
    for name, outcome in sorted(result.get("workers", {}).items()):
        detail = outcome.get("error") or "ok"
        print(f"  {name}: "
              f"{'accepted' if outcome.get('accepted') else 'rejected'}"
              f" — {detail}")
    generations = result.get("generations") or {}
    if generations:
        print(f"  generations: {generations}")
    if not accepted and result.get("error"):
        print(f"  error: {result['error']}", file=sys.stderr)
    return 0 if accepted else 1


def _cmd_cluster_drain(args: argparse.Namespace) -> int:
    code, result = _cluster_http(args.connect, "/drain", b"")
    if code == 200 and result.get("draining"):
        print("cluster drain initiated")
        return 0
    print(f"drain refused (http {code}): {result}", file=sys.stderr)
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: pipeline trace locally, span waterfall remotely.

    Without ``--connect`` this is ``check --trace`` (the first
    positional is a policy file).  With ``--connect`` the first
    positional is a distributed trace id, fetched from an admin
    endpoint's ``GET /trace/<id>`` — the cluster admin answers with
    router+worker spans joined, a single worker's sidecar with its own.
    """
    if args.connect is None:
        if not (args.subject and args.transaction and args.object):
            raise GrbacError(
                "trace needs POLICY SUBJECT TRANSACTION OBJECT — or "
                "--connect HOST:ADMIN_PORT with a trace id"
            )
        return _cmd_check(args)
    trace_id = args.policy
    code, payload = _cluster_http(args.connect, f"/trace/{trace_id}")
    spans = payload.get("spans")
    if code != 200 or not isinstance(spans, list) or not spans:
        print(f"trace {trace_id}: no spans found (http {code})",
              file=sys.stderr)
        return 1
    services = sorted(
        {str(span.get("service") or "?") for span in spans}
    )
    print(
        f"trace {trace_id} — {len(spans)} span(s) "
        f"across {', '.join(services)}"
    )
    for span in spans:
        depth = span.get("depth")
        indent = "  " * ((depth if isinstance(depth, int) else 0) + 1)
        where = span.get("shard") or span.get("service") or "?"
        duration = span.get("duration_us")
        timing = (
            f"{duration:.1f} us"
            if isinstance(duration, (int, float))
            else "in flight"
        )
        annotations = span.get("annotations")
        notes = ""
        if isinstance(annotations, dict):
            notes = "  ".join(
                f"{key}={annotations[key]}"
                for key in sorted(annotations)
                if key != "stage_timings_us"
            )
        print(f"{indent}{span.get('name')}  [{where}]  {timing}  {notes}")
    return 0


def _parse_when(text: str) -> float:
    """Epoch seconds from a float or ISO-8601 timestamp."""
    try:
        return float(text)
    except ValueError:
        pass
    from datetime import datetime, timezone

    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        raise GrbacError(
            f"invalid time {text!r} (epoch seconds or ISO-8601)"
        ) from None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.timestamp()


def _cmd_audit(args: argparse.Namespace) -> int:
    """``repro audit``: verify/query a hash-chained audit log, build
    and check signed evidence packs."""
    import json as json_module
    import time as time_module

    from repro.core.evidence import (
        build_evidence_pack,
        join_traces,
        load_jsonl,
        query_audit_records,
        verify_audit_file,
        verify_evidence_pack,
    )

    action = args.audit_command
    if action == "verify":
        verification = verify_audit_file(
            args.log,
            expect_head=args.expect_head,
            use_anchor=not args.no_anchor,
        )
        if verification.ok:
            print(
                f"OK: {verification.records} record(s), "
                f"head {verification.head_hash}"
            )
            return 0
        where = (
            f" (line {verification.error_line})"
            if verification.error_line
            else ""
        )
        print(f"FAIL: {verification.error}{where}", file=sys.stderr)
        return 1

    if action == "check-pack":
        with open(args.pack, "r", encoding="utf-8") as handle:
            pack = json_module.load(handle)
        key = args.sign_key.encode("utf-8") if args.sign_key else None
        ok, reason = verify_evidence_pack(pack, key=key)
        if ok:
            signed = "signed, " if key is not None else ""
            print(
                f"OK: {signed}digest {pack.get('digest')}  "
                f"({len(pack.get('records', []))} record(s), anchor "
                f"{pack.get('chain', {}).get('head_hash')})"
            )
            return 0
        print(f"FAIL: {reason}", file=sys.stderr)
        return 1

    # query / pack share the chain verification and the filters.
    verification = verify_audit_file(
        args.log, use_anchor=not args.no_anchor
    )
    if not verification.ok:
        print(
            f"FAIL: refusing to answer from a broken chain: "
            f"{verification.error}",
            file=sys.stderr,
        )
        return 1
    granted = True if args.granted else (False if args.denied else None)
    since = _parse_when(args.since) if args.since else None
    until = _parse_when(args.until) if args.until else None
    records = query_audit_records(
        verification.entries,
        subject=args.subject,
        obj=args.object,
        transaction=args.transaction,
        granted=granted,
        tenant=args.tenant,
        since=since,
        until=until,
    )
    query = {
        key: value
        for key, value in (
            ("subject", args.subject),
            ("object", args.object),
            ("transaction", args.transaction),
            ("granted", granted),
            ("tenant", args.tenant),
            ("since", since),
            ("until", until),
        )
        if value is not None
    }

    if action == "query":
        limit = args.limit if args.limit and args.limit > 0 else None
        shown = records if limit is None else records[-limit:]
        if args.json:
            print(json_module.dumps(shown, indent=2))
        else:
            for record in shown:
                timestamp = record.get("timestamp")
                when = (
                    time_module.strftime(
                        "%Y-%m-%dT%H:%M:%SZ",
                        time_module.gmtime(float(timestamp)),
                    )
                    if isinstance(timestamp, (int, float))
                    else "?"
                )
                verdict = "GRANT" if record.get("granted") else "DENY"
                trace_note = (
                    f"  trace={record['trace_id']}"
                    if record.get("trace_id")
                    else ""
                )
                print(
                    f"{when}  {verdict:<5} {record.get('subject')} "
                    f"{record.get('transaction')} {record.get('object')}"
                    f"  tenant={record.get('tenant')}{trace_note}"
                )
                print(f"    why: {record.get('rationale')}")
                rules = record.get("matched_rules")
                if isinstance(rules, list):
                    for rule in rules:
                        print(f"    rule: {rule}")
                print(
                    f"    roles: subject={record.get('subject_roles')} "
                    f"environment={record.get('environment_roles')}"
                )
        print(
            f"{len(records)} matching record(s) of {verification.records} "
            f"(chain OK, head {verification.head_hash})"
        )
        return 0

    # action == "pack"
    spans = None
    if args.trace_file:
        spans = join_traces(records, load_jsonl(args.trace_file))
    key = args.sign_key.encode("utf-8") if args.sign_key else None
    pack = build_evidence_pack(
        verification,
        records,
        query,
        source=args.log,
        spans=spans,
        generated_at=time_module.time(),
        key=key,
        key_id=args.key_id,
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        json_module.dump(pack, handle, indent=2)
        handle.write("\n")
    signed = " (signed)" if key is not None else ""
    print(
        f"wrote {args.output}: {len(records)} record(s), "
        f"digest {pack['digest']}{signed}"
    )
    return 0


def _cmd_tenant(args: argparse.Namespace) -> int:
    """``repro tenant``: administer an on-disk policy store.

    Every subcommand opens the JSONL store, applies one lineage
    operation, and exits — the serving process (``serve --store``)
    picks changes up on its next tenant-scoped reload/refresh.
    """
    from repro.exceptions import PolicyStoreError
    from repro.store import PolicyStore

    store = PolicyStore(args.store)
    action = args.tenant_command
    try:
        if action == "create":
            lineage = store.create_tenant(args.name, actor=args.actor)
            print(f"created tenant {lineage.name!r} in {args.store}")
            return 0
        if action == "put":
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
            before = len(store.lineage(args.name).versions)
            version = store.put(
                args.name, text, actor=args.actor, note=args.note
            )
            if len(store.lineage(args.name).versions) == before:
                print(
                    f"{args.name} v{version.version} unchanged "
                    f"(content already at head: {version.content_hash})"
                )
            else:
                print(
                    f"{args.name} v{version.version} appended "
                    f"({version.content_hash})"
                )
            if args.activate:
                store.activate(
                    args.name, version.version, actor=args.actor
                )
                print(f"{args.name} v{version.version} activated")
            return 0
        if action == "activate":
            version = store.activate(
                args.name, version=args.version, actor=args.actor
            )
            print(f"{args.name} v{version.version} activated")
            return 0
        if action == "rollback":
            version = store.rollback(args.name, actor=args.actor)
            print(f"{args.name} rolled back to v{version.version}")
            return 0
        # action == "log"
        if args.name:
            lineage = store.log(args.name)
            print(f"tenant {lineage['tenant']!r}  "
                  f"active v{lineage['active_version']}")
            print("versions:")
            for row in lineage["versions"]:
                note = f"  # {row['note']}" if row.get("note") else ""
                print(f"  v{row['version']:<3} {row['content_hash']}  "
                      f"by {row['actor'] or '?'}{note}")
            print("activations:")
            for row in lineage["activations"]:
                print(f"  {row['action']:<9} -> v{row['version']}  "
                      f"by {row['actor'] or '?'}")
        else:
            rows = store.overview()
            if not rows:
                print(f"store {args.store} holds no tenants")
            for row in rows:
                active = (
                    f"v{row['active_version']}"
                    if row["active_version"]
                    else "-"
                )
                print(f"  {row['tenant']:<24} versions {row['versions']:<4} "
                      f"active {active:<5} "
                      f"activations {row['activations']}")
        return 0
    except PolicyStoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _cmd_export(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    if args.format == "dsl":
        from repro.policy.dsl.printer import print_policy

        text = print_policy(policy).rstrip("\n")
    else:
        text = to_json(policy)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from datetime import datetime

    from repro.workload.scenarios import (
        build_negative_rights_scenario,
        build_repairman_scenario,
        build_s51_scenario,
        build_s52_scenario,
    )

    if args.scenario == "s51":
        scenario = build_s51_scenario(start=datetime(2000, 1, 17, 19, 30))
        home = scenario.home
        for subject in ("alice", "bobby", "mom"):
            outcome = home.try_operate(subject, "livingroom/tv", "power_on")
            print(f"{subject:>6} -> {'GRANT' if outcome.granted else 'DENY'}")
    elif args.scenario == "s52":
        scenario = build_s52_scenario()
        home = scenario.home
        alice = home.resident("alice")
        result = home.auth.authenticate(alice.presence())
        print(result.describe())
        outcome = home.operate_with_presence(
            alice.presence(), "livingroom/tv", "power_on"
        )
        print(f"TV power button -> {'GRANT' if outcome.granted else 'DENY'}")
    elif args.scenario == "repairman":
        scenario = build_repairman_scenario()
        home = scenario.home
        home.runtime.clock.advance(hours=2)
        home.move("repair-tech", "kitchen")
        outcome = home.try_operate("repair-tech", "kitchen/dishwasher", "diagnose")
        print(f"09:00 inside -> {'GRANT' if outcome.granted else 'DENY'}")
        home.runtime.clock.advance(hours=5)
        outcome = home.try_operate("repair-tech", "kitchen/dishwasher", "diagnose")
        print(f"14:00 inside -> {'GRANT' if outcome.granted else 'DENY'}")
    else:  # negative-rights
        scenario = build_negative_rights_scenario()
        home = scenario.home
        for subject, device in [("alice", "kitchen/oven"), ("mom", "kitchen/oven")]:
            outcome = home.try_operate(subject, device, "power_on")
            print(f"{subject:>6} power_on oven -> "
                  f"{'GRANT' if outcome.granted else 'DENY'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="GRBAC policy tooling"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    show = subparsers.add_parser("show", help="print a policy's contents")
    show.add_argument("policy", help="path to a DSL policy file")
    show.set_defaults(func=_cmd_show)

    lint = subparsers.add_parser("lint", help="analyze a policy for problems")
    lint.add_argument("policy", help="path to a DSL policy file")
    lint.set_defaults(func=_cmd_lint)

    def add_check_arguments(
        sub: argparse.ArgumentParser, optional_targets: bool = False
    ) -> None:
        sub.add_argument("policy", help="path to a DSL policy file")
        if optional_targets:
            sub.add_argument("subject", nargs="?", default=None)
            sub.add_argument("transaction", nargs="?", default=None)
            sub.add_argument("object", nargs="?", default=None)
        else:
            sub.add_argument("subject")
            sub.add_argument("transaction")
            sub.add_argument("object")
        sub.add_argument(
            "--env",
            action="append",
            default=[],
            metavar="ROLE",
            help="active environment role (repeatable)",
        )
        sub.add_argument(
            "--confidence",
            type=float,
            default=1.0,
            help="identity confidence of the requester (default 1.0)",
        )
        sub.add_argument(
            "--threshold",
            type=float,
            default=0.0,
            help="policy-wide confidence threshold (default 0.0)",
        )
        sub.add_argument(
            "--explain", action="store_true", help="print the full decision"
        )
        sub.add_argument(
            "--diagnose",
            action="store_true",
            help="list every candidate rule and why it did/didn't apply",
        )
        sub.add_argument(
            "--stats",
            action="store_true",
            help="print engine statistics (metrics registry) after the decision",
        )

    check = subparsers.add_parser("check", help="mediate one request")
    add_check_arguments(check)
    check.add_argument(
        "--trace",
        action="store_true",
        help="print the timed per-stage pipeline trace of the decision",
    )
    check.set_defaults(func=_cmd_check)

    trace = subparsers.add_parser(
        "trace",
        help="mediate one request and print its pipeline trace "
        "(alias for check --trace), or — with --connect — fetch one "
        "distributed trace by id and print its span waterfall",
    )
    add_check_arguments(trace, optional_targets=True)
    trace.add_argument(
        "--connect",
        metavar="HOST:ADMIN_PORT",
        default=None,
        help="fetch GET /trace/<id> from this admin endpoint (cluster "
        "or single worker); the first positional is then the trace id",
    )
    trace.set_defaults(func=_cmd_trace, trace=True)

    bench = subparsers.add_parser(
        "bench", help="replay a synthetic request stream against a policy"
    )
    bench.add_argument("policy", help="path to a DSL policy file")
    bench.add_argument(
        "--requests",
        type=int,
        default=1000,
        help="number of synthetic requests to replay (default 1000)",
    )
    bench.add_argument(
        "--seed", type=int, default=0, help="request-stream seed (default 0)"
    )
    bench.add_argument(
        "--cache-size",
        type=int,
        default=0,
        help="LRU decision-cache capacity (default 0 = off)",
    )
    bench.add_argument(
        "--no-batch",
        action="store_true",
        help="mediate one request at a time instead of decide_batch",
    )
    bench.set_defaults(func=_cmd_bench)

    def add_pdp_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--max-batch",
            type=int,
            default=64,
            help="micro-batch flush size (default 64)",
        )
        sub.add_argument(
            "--cache-size",
            type=int,
            default=4096,
            help="revision-keyed decision cache capacity (default 4096)",
        )

    serve = subparsers.add_parser(
        "serve",
        help="serve a policy as a PDP over newline-delimited-JSON TCP",
    )
    serve.add_argument(
        "policy",
        nargs="?",
        default=None,
        help="path to a DSL policy file for the default tenant "
        "(optional with --store: the store's active 'default' "
        "version boots the PDP)",
    )
    serve.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="attach a multi-tenant policy store directory; tenants "
        "with an active version become servable (requests carry "
        "'tenant', reloads accept ?tenant=)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=7471,
        help="bind port; 0 picks an ephemeral port (default 7471)",
    )
    add_pdp_arguments(serve)
    serve.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        help="admission bound; excess requests shed DENY_OVERLOAD "
        "(default 1024)",
    )
    serve.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="default per-request deadline in ms (default: none)",
    )
    serve.add_argument(
        "--threshold",
        type=float,
        default=0.0,
        help="policy-wide confidence threshold (default 0.0)",
    )
    serve.add_argument(
        "--admin-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve /metrics /health /ready /dump over HTTP on "
        "this port (0 picks an ephemeral port; default: off)",
    )
    serve.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="head-sample this fraction of requests for full pipeline "
        "traces (default 0.0; needs --trace-file to export)",
    )
    serve.add_argument(
        "--trace-file",
        metavar="PATH",
        help="export sampled decision spans as JSONL to this file "
        "(rotated; default: no trace export)",
    )
    serve.add_argument(
        "--audit-file",
        metavar="PATH",
        help="append every mediated grant/deny to this hash-chained "
        "JSONL audit log (verify with `repro audit verify`; "
        "default: no audit log)",
    )
    serve.add_argument(
        "--flight-capacity",
        type=int,
        default=512,
        help="flight-recorder ring size for the dump op / repro tail "
        "(0 disables; default 512)",
    )
    serve.add_argument(
        "--slo-availability",
        type=float,
        default=0.999,
        metavar="TARGET",
        help="availability SLO target: fraction of requests that must "
        "be mediated, not shed/timed out/errored (default 0.999)",
    )
    serve.add_argument(
        "--slo-latency-ms",
        type=float,
        default=50.0,
        metavar="MS",
        help="latency SLO threshold in ms (default 50.0)",
    )
    serve.add_argument(
        "--watch",
        action="store_true",
        help="poll the policy file's mtime and hot-reload it through "
        "the validated admin path when it changes (a candidate that "
        "fails validation is rejected and the old policy keeps "
        "serving)",
    )
    serve.add_argument(
        "--watch-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="mtime poll interval with --watch (default 1.0)",
    )
    serve.add_argument(
        "--store-reader",
        action="store_true",
        help="open --store read-only and follow the writer's appends "
        "(for cluster workers sharing one store directory; mutating "
        "ops are refused)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT, wait at most this long for admitted "
        "requests to drain before shedding the remainder "
        "(default: drain without a deadline)",
    )
    serve.add_argument(
        "--continuous",
        action="store_true",
        help="attach a live environment runtime: the 'env' wire op "
        "accepts state/location events and role definitions, "
        "subscribed GRANTs ('subscribe': true) are revoked by push "
        "when a supporting environment role deactivates, and a "
        "timer-wheel driver flips temporal roles at their boundaries "
        "with no traffic in flight (continuous authorization, §4.2.2)",
    )
    serve.add_argument(
        "--sim-start",
        metavar="ISO_DATETIME",
        default=None,
        help="with --continuous, drive the environment from a "
        "simulated clock starting at this ISO datetime (advance it "
        "with the env op); default: the system wall clock",
    )
    serve.set_defaults(func=_cmd_serve)

    watch = subparsers.add_parser(
        "watch",
        help="hold a subscribed grant open against a --continuous PDP "
        "and print pushed revocations as they arrive",
    )
    watch.add_argument("subject", help="requesting subject")
    watch.add_argument("transaction", help="transaction name")
    watch.add_argument("object", help="target object")
    watch.add_argument("--host", default="127.0.0.1", help="server host")
    watch.add_argument(
        "--port", type=int, default=7471, help="server port (default 7471)"
    )
    watch.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop watching after this long (default: until Ctrl-C "
        "or the grant is revoked)",
    )
    watch.set_defaults(func=_cmd_watch)

    reload_cmd = subparsers.add_parser(
        "reload",
        help="hot-reload a served PDP's policy through the validated "
        "admin path (lint, diff, atomic swap)",
    )
    reload_cmd.add_argument(
        "policy", help="path to the candidate policy (DSL or exported JSON)"
    )
    reload_cmd.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="a running `serve` instance",
    )
    reload_cmd.add_argument(
        "--actor",
        default="cli",
        help="who is making the change, for the audit record "
        "(default 'cli')",
    )
    reload_cmd.add_argument(
        "--dry-run",
        action="store_true",
        help="validate and diff only; do not swap the policy in",
    )
    reload_cmd.set_defaults(func=_cmd_reload)

    status = subparsers.add_parser(
        "status",
        help="one-shot live-ops view of a served PDP "
        "(health, readiness, SLOs, metrics)",
    )
    status.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="a running `serve` instance",
    )
    status.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when unhealthy, not ready, or the Prometheus "
        "exposition fails to parse (CI probe mode)",
    )
    status.set_defaults(func=_cmd_status)

    tail = subparsers.add_parser(
        "tail",
        help="print a served PDP's flight-recorder entries "
        "(recent decisions), optionally following",
    )
    tail.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="a running `serve` instance",
    )
    tail.add_argument(
        "--limit",
        type=int,
        default=20,
        help="entries to print on the first poll (default 20)",
    )
    tail.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help="keep polling for new entries until interrupted",
    )
    tail.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="poll interval with --follow (default 1.0)",
    )
    tail.add_argument(
        "--subject", help="only entries for this subject"
    )
    tail.add_argument(
        "--outcome",
        help="only entries with this outcome (grant, deny, "
        "deny-overload, deny-timeout, error)",
    )
    tail.set_defaults(func=_cmd_tail)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="drive a synthetic closed-loop workload at a PDP "
        "(in-process, or --connect to a served one)",
    )
    loadgen.add_argument("policy", help="path to a DSL policy file")
    loadgen.add_argument(
        "--connect",
        metavar="HOST:PORT",
        action="append",
        help="target a running `serve` instance (must serve the same "
        "policy file; default: in-process PDP).  Repeatable: with "
        "several targets the stream is dealt round-robin across them "
        "and per-endpoint throughput is reported",
    )
    loadgen.add_argument(
        "--connections",
        type=int,
        default=1,
        metavar="N",
        help="TCP connections per --connect endpoint (default 1); more "
        "connections lift the single-socket write-serialization "
        "ceiling",
    )
    loadgen.add_argument(
        "--wire",
        choices=("json", "binary"),
        default="json",
        help="wire format for --connect: 'binary' runs the intern "
        "handshake and ships interned-integer frames on the hot path "
        "(default json; ignored in-process)",
    )
    loadgen.add_argument(
        "--requests",
        type=int,
        default=1000,
        help="unique synthetic requests (default 1000)",
    )
    loadgen.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="replay the stream N times (warms the decision cache)",
    )
    loadgen.add_argument(
        "--concurrency",
        type=int,
        default=16,
        help="closed-loop workers (default 16)",
    )
    loadgen.add_argument(
        "--seed", type=int, default=0, help="request-stream seed (default 0)"
    )
    add_pdp_arguments(loadgen)
    loadgen.add_argument(
        "--unbatched",
        action="store_true",
        help="in-process only: one request per engine call (ablation)",
    )
    loadgen.add_argument(
        "--no-cache",
        action="store_true",
        help="in-process only: disable the decision cache",
    )
    loadgen.add_argument(
        "--tenant",
        default=None,
        metavar="NAME",
        help="route every request to this tenant on the target PDP "
        "(the policy file should be that tenant's active policy; "
        "default: the default tenant)",
    )
    loadgen.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="originate a client-side trace context on this fraction "
        "of requests; mismatch reports then carry pasteable trace ids "
        "(default 0.0)",
    )
    loadgen.add_argument(
        "--verify",
        action="store_true",
        help="cross-check every answer against a direct engine; "
        "exit 1 on any stale answer or silent drop",
    )
    loadgen.add_argument(
        "--json", metavar="PATH", help="write machine-readable results"
    )
    loadgen.add_argument(
        "--report",
        metavar="PATH",
        help="append this run's client-side percentiles and shed/"
        "timeout counts to a trajectory report (e.g. "
        "benchmarks/reports/BENCH_service.json)",
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    cluster = subparsers.add_parser(
        "cluster",
        help="run and operate a multi-worker PDP cluster (shard "
        "router + supervisor + aggregated live-ops)",
    )
    cluster_sub = cluster.add_subparsers(
        dest="cluster_command", required=True
    )
    cluster_start = cluster_sub.add_parser(
        "start",
        help="fork N workers behind a shard router and serve until "
        "SIGTERM/SIGINT or POST /drain",
    )
    cluster_start.add_argument(
        "policy",
        nargs="?",
        default=None,
        help="path to a DSL policy file every worker boots from "
        "(optional with --store)",
    )
    cluster_start.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="policy store directory workers open read-only "
        "(--store-reader); the supervisor side stays the writer",
    )
    cluster_start.add_argument(
        "--workers", type=int, default=4,
        help="worker process count (default 4)",
    )
    cluster_start.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    cluster_start.add_argument(
        "--port", type=int, default=7470,
        help="router (data plane) port; 0 picks an ephemeral port "
        "(default 7470)",
    )
    cluster_start.add_argument(
        "--admin-port", type=int, default=0, metavar="PORT",
        help="aggregating admin HTTP port (default: ephemeral)",
    )
    cluster_start.add_argument(
        "--vnodes", type=int, default=128,
        help="virtual nodes per worker on the hash ring (default 128)",
    )
    cluster_start.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="graceful-drain deadline for the router and each worker "
        "(default 5.0)",
    )
    cluster_start.add_argument(
        "--worker-arg",
        action="append",
        metavar="ARG",
        help="extra argument passed to every worker's `serve` command "
        "line (repeatable), e.g. --worker-arg=--cache-size=8192",
    )
    cluster_start.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="worker-originated distributed-trace sampling: every "
        "worker gets --trace-sample-rate RATE, and a sampled "
        "decision's spans are joinable via GET /trace/<id> or `repro "
        "trace <id> --connect` (default 0.0)",
    )
    cluster_start.add_argument(
        "--audit-dir",
        metavar="DIR",
        default=None,
        help="give every worker a hash-chained audit log "
        "(DIR/<worker>.audit.jsonl, verify with `repro audit "
        "verify`; default: no audit logs)",
    )
    cluster_start.set_defaults(func=_cmd_cluster_start)
    cluster_status = cluster_sub.add_parser(
        "status", help="one-line-per-worker cluster state and health"
    )
    cluster_status.add_argument(
        "--connect", required=True, metavar="HOST:ADMIN_PORT",
        help="the cluster admin endpoint printed by `cluster start`",
    )
    cluster_status.set_defaults(func=_cmd_cluster_status)
    cluster_reload = cluster_sub.add_parser(
        "reload",
        help="two-phase cluster-wide hot reload: prepare on every "
        "worker, activate only if all accepted",
    )
    cluster_reload.add_argument(
        "policy", help="path to the candidate policy file (DSL or JSON)"
    )
    cluster_reload.add_argument(
        "--connect", required=True, metavar="HOST:ADMIN_PORT",
        help="the cluster admin endpoint",
    )
    cluster_reload.add_argument(
        "--actor", default="", help="audit-trail attribution"
    )
    cluster_reload.add_argument(
        "--dry-run",
        action="store_true",
        help="prepare (validate + compile) everywhere, then abort — "
        "nothing activates",
    )
    cluster_reload.set_defaults(func=_cmd_cluster_reload)
    cluster_drain = cluster_sub.add_parser(
        "drain",
        help="gracefully shut the cluster down (router drains, "
        "workers SIGTERM-drain)",
    )
    cluster_drain.add_argument(
        "--connect", required=True, metavar="HOST:ADMIN_PORT",
        help="the cluster admin endpoint",
    )
    cluster_drain.set_defaults(func=_cmd_cluster_drain)

    audit = subparsers.add_parser(
        "audit",
        help="verify and query a hash-chained audit log; build and "
        "check signed evidence packs",
    )
    audit_sub = audit.add_subparsers(dest="audit_command", required=True)

    def add_audit_log_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "log", help="path to a hash-chained audit JSONL log"
        )
        sub.add_argument(
            "--no-anchor",
            action="store_true",
            help="skip the <log>.head sidecar anchor (checks link "
            "integrity only; tail truncation becomes undetectable)",
        )

    def add_audit_filters(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--subject", default=None)
        sub.add_argument("--object", default=None)
        sub.add_argument("--transaction", default=None)
        verdict = sub.add_mutually_exclusive_group()
        verdict.add_argument(
            "--granted", action="store_true", help="grants only"
        )
        verdict.add_argument(
            "--denied", action="store_true", help="denies only"
        )
        sub.add_argument("--tenant", default=None)
        sub.add_argument(
            "--since",
            default=None,
            metavar="WHEN",
            help="window start (epoch seconds or ISO-8601)",
        )
        sub.add_argument(
            "--until",
            default=None,
            metavar="WHEN",
            help="window end (epoch seconds or ISO-8601)",
        )

    audit_verify = audit_sub.add_parser(
        "verify",
        help="re-walk the hash chain; exit 1 on tampering or "
        "truncation",
    )
    add_audit_log_argument(audit_verify)
    audit_verify.add_argument(
        "--expect-head",
        default=None,
        metavar="HASH",
        help="externally pinned head hash (wins over the sidecar)",
    )
    audit_verify.set_defaults(func=_cmd_audit)

    audit_query = audit_sub.add_parser(
        "query",
        help="who accessed what, in window W, under which roles, and "
        "why — over a verified chain",
    )
    add_audit_log_argument(audit_query)
    add_audit_filters(audit_query)
    audit_query.add_argument(
        "--limit",
        type=int,
        default=None,
        help="show only the last N matches (tallies still count all)",
    )
    audit_query.add_argument(
        "--json",
        action="store_true",
        help="print matching records as JSON instead of prose",
    )
    audit_query.set_defaults(func=_cmd_audit)

    audit_pack = audit_sub.add_parser(
        "pack",
        help="build a self-verifying (optionally HMAC-signed) "
        "evidence pack from a query over a verified chain",
    )
    add_audit_log_argument(audit_pack)
    add_audit_filters(audit_pack)
    audit_pack.add_argument(
        "-o", "--output", required=True, help="pack output file"
    )
    audit_pack.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help="exported spans JSONL (serve --trace-file) to join into "
        "the pack by trace/request id",
    )
    audit_pack.add_argument(
        "--sign-key",
        default=None,
        metavar="KEY",
        help="HMAC-SHA256 key; the pack then carries a signature "
        "over its digest",
    )
    audit_pack.add_argument(
        "--key-id", default="", help="key identifier kept in the pack"
    )
    audit_pack.set_defaults(func=_cmd_audit)

    audit_check = audit_sub.add_parser(
        "check-pack",
        help="check an evidence pack's digest (and signature with "
        "--sign-key)",
    )
    audit_check.add_argument("pack", help="path to an evidence pack")
    audit_check.add_argument(
        "--sign-key",
        default=None,
        metavar="KEY",
        help="HMAC key the pack must verify under",
    )
    audit_check.set_defaults(func=_cmd_audit)

    export = subparsers.add_parser(
        "export", help="convert a policy to JSON or normalized DSL"
    )
    export.add_argument("policy", help="path to a DSL policy file")
    export.add_argument("-o", "--output", help="output file (default stdout)")
    export.add_argument(
        "--format",
        choices=["json", "dsl"],
        default="json",
        help="output format (default json)",
    )
    export.set_defaults(func=_cmd_export)

    tenant = subparsers.add_parser(
        "tenant",
        help="administer a multi-tenant policy store "
        "(create/put/activate/rollback/log)",
    )
    tenant_sub = tenant.add_subparsers(dest="tenant_command", required=True)

    def add_store_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store",
            required=True,
            metavar="DIR",
            help="policy store directory (created on first use)",
        )
        sub.add_argument(
            "--actor",
            default="cli",
            help="who is making the change, for the lineage record "
            "(default 'cli')",
        )

    tenant_create = tenant_sub.add_parser(
        "create", help="register a new, empty tenant lineage"
    )
    tenant_create.add_argument("name", help="tenant name")
    add_store_argument(tenant_create)
    tenant_create.set_defaults(func=_cmd_tenant)

    tenant_put = tenant_sub.add_parser(
        "put",
        help="append a policy file as the tenant's next version "
        "(content identical to the head is a no-op)",
    )
    tenant_put.add_argument("name", help="tenant name")
    tenant_put.add_argument("file", help="path to a DSL policy file")
    add_store_argument(tenant_put)
    tenant_put.add_argument(
        "--note", default="", help="free-form note kept with the version"
    )
    tenant_put.add_argument(
        "--activate",
        action="store_true",
        help="also activate the new version (runs the lint gate)",
    )
    tenant_put.set_defaults(func=_cmd_tenant)

    tenant_activate = tenant_sub.add_parser(
        "activate",
        help="move the tenant's active pointer (lint-gated; a "
        "rejected candidate leaves the pointer untouched)",
    )
    tenant_activate.add_argument("name", help="tenant name")
    tenant_activate.add_argument(
        "--version",
        type=int,
        default=None,
        help="version to activate (default: the head version)",
    )
    add_store_argument(tenant_activate)
    tenant_activate.set_defaults(func=_cmd_tenant)

    tenant_rollback = tenant_sub.add_parser(
        "rollback",
        help="reactivate the previously active distinct version "
        "(no re-lint: the escape hatch is never blockable)",
    )
    tenant_rollback.add_argument("name", help="tenant name")
    add_store_argument(tenant_rollback)
    tenant_rollback.set_defaults(func=_cmd_tenant)

    tenant_log = tenant_sub.add_parser(
        "log",
        help="print a tenant's lineage (or a store overview "
        "when no tenant is named)",
    )
    tenant_log.add_argument(
        "name", nargs="?", default=None, help="tenant name (optional)"
    )
    add_store_argument(tenant_log)
    tenant_log.set_defaults(func=_cmd_tenant)

    demo = subparsers.add_parser("demo", help="run a canned paper scenario")
    demo.add_argument(
        "scenario",
        choices=["s51", "s52", "repairman", "negative-rights"],
        help="which paper scenario to run",
    )
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except GrbacError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
