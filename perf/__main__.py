"""``python -m perf``: run the benchmark, or run it twice and compare.

    python -m perf run --seed 11              all four workloads, untraced
    python -m perf run --seed 11 --traced     ... and the traced run of each
    python -m perf repeat                     the full set twice, compared
    python -m perf run --workload served-hot --seed 1 --seconds 20 --trace 0
                                              one run, as the driver makes it

Every run of one workload is its own process (the all-workload forms
start one per workload), writes ``perf/out/result-*.json`` with every
metric it measured, and prints as its last line the contract's JSON
object holding the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

from perf import sut

#: Metrics the issue lists as end-to-end but ``BENCHMARK.json`` cannot
#: gate (too noisy on the bench box to hold any allowed bound, or not
#: defined on every workload); the reports print them with the gated
#: ones, ``repeat`` holds them to these bounds.
OWN_BOUNDS = {
    "decide_p95_us": 0.25, "revoke_p50_ms": 0.25, "revoke_p95_ms": 0.25,
}
FAILED_SHARE_BOUND = 0.001  # absolute
QUICK_SECONDS = 3


def benchmark() -> Dict[str, object]:
    with open(os.path.join(sut.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def result_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(sut.OUT, f"result-{workload}-seed{seed}-trace{trace}.json")


# ----------------------------------------------------------------------
# One workload, one process
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    sut.require_product()
    sut.install_cleanup()
    from perf import workloads

    if args.quick:
        workloads.SETUPS = 1
        workloads.WARMUP_S = 0.5
    spec = benchmark()
    run = workloads.execute(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    result = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": args.trace,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(run.metrics.items())
        },
        "windows": run.windows,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_share": run.failed / max(1, run.attempted),
        "failures": run.failures,
        "notes": run.notes,
        "fingerprint": sut.fingerprint(),
    }
    os.makedirs(sut.OUT, exist_ok=True)
    with open(result_path(run.workload, run.seed, args.trace), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)

    print(f"{run.workload}  seed {run.seed}  {run.seconds:g} s  "
          f"{'traced' if args.trace else 'untraced'}")
    for name, (value, unit) in sorted(run.metrics.items()):
        print(f"  {name:<40}{value:>14.4f} {unit}")
    print(f"  {'failed_share':<40}{result['failed_share']:>14.6f} ratio   "
          f"({run.failed} of {run.attempted}: "
          + ", ".join(f"{k} {v}" for k, v in run.failures.items() if v) + ")")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in run.metrics:
            value, unit = run.metrics[name]
            if unit != entry["unit"]:
                sys.exit(f"perf: {name} measured in {unit}, "
                         f"BENCHMARK.json says {entry['unit']}")
        elif args.trace:
            # A layer that is not on this workload's path did no work.
            value = 0.0
        else:
            sys.exit(f"perf: {run.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# All workloads
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, seconds: float, trace: int, quick: bool
          ) -> Dict[str, object]:
    """One workload in its own process; returns its result file."""
    command = [
        sys.executable, "-m", "perf", "run", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--quick"] if quick else [])
    done = subprocess.run(command, cwd=sut.ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.exit(f"perf: {workload} (trace {trace}) exited {done.returncode}")
    with open(result_path(workload, seed, trace), encoding="utf-8") as handle:
        return json.load(handle)


def run_set(seed: int, seconds: float, trace: int, quick: bool
            ) -> Dict[str, Dict[str, object]]:
    results = {}
    for entry in benchmark()["workloads"]:
        name = entry["name"]
        print(f"... {name} (seed {seed}, {seconds:g} s, trace {trace})",
              file=sys.stderr, flush=True)
        results[name] = spawn(name, seed, seconds, trace, quick)
    return results


def table(title: str, rows: List[str],
          results: Dict[str, Dict[str, object]]) -> None:
    names = list(results)
    print(f"\n{title}")
    print(f"  {'':<38}" + "".join(f"{name:>16}" for name in names) + "  unit")
    for row in rows:
        cells, unit = [], ""
        for name in names:
            if row == "failed_share":
                cells.append(f"{results[name]['failed_share']:>16.6f}")
                unit = "ratio"
                continue
            metric = results[name]["metrics"].get(row)
            if metric is None:
                cells.append(f"{'—':>16}")
            else:
                cells.append(f"{metric['value']:>16.3f}")
                unit = metric["unit"]
        print(f"  {row:<38}" + "".join(cells) + f"  {unit}")


def end_to_end_rows(spec: Dict[str, object]) -> List[str]:
    return ([entry["name"] for entry in spec["end_to_end"]]
            + list(OWN_BOUNDS) + ["failed_share"])


def run_all(args: argparse.Namespace) -> int:
    spec = benchmark()
    seconds = QUICK_SECONDS if args.quick else args.seconds or spec["run_seconds"]
    untraced = run_set(args.seed, seconds, 0, args.quick)
    print(f"host: {json.dumps(sut.fingerprint())}")
    table("end to end (untraced run)", end_to_end_rows(spec), untraced)
    digests = {
        name: untraced[name]["notes"].get("open_stream_digest")
        for name in ("served-hot", "cluster-routed")
    }
    same = len(set(digests.values())) == 1
    print(f"\nopen-loop stream digests {digests}: "
          f"{'identical' if same else 'DIFFERENT'}")
    failed = sum(result["failed"] for result in untraced.values())
    if args.traced:
        traced = run_set(args.seed, seconds, 1, args.quick)
        layer_rows = sorted(
            {name for result in traced.values() for name in result["metrics"]}
            - {entry["name"] for entry in spec["end_to_end"]}
        )
        table("per layer (traced run)", layer_rows, traced)
        print("\nledger: Σ span p50 along the blocking path against the "
              "served p50 (same traced invocation)")
        for name in ("served-hot", "cluster-routed", "revoke-churn"):
            metrics = traced[name]["metrics"]
            print(f"  {name:<16} served p50 "
                  f"{metrics['decide_p50_us']['value']:9.1f} us = spans "
                  f"{metrics['ledger.sum_p50_us']['value']:8.1f} us + residual "
                  f"{metrics['server.hop_us']['value']:8.1f} us "
                  f"({metrics['ledger.residual_share']['value']:.1%} sockets, "
                  f"scheduling, queue wait)")
        failed += sum(result["failed"] for result in traced.values())
    if not same:
        sys.exit("perf: served-hot and cluster-routed were offered "
                 "different open-loop streams")
    return 1 if failed else 0


def repeat(args: argparse.Namespace) -> int:
    """The full set twice on this checkout; the two must agree on every
    workload x end-to-end metric within the benchmark's own bounds."""
    spec = benchmark()
    seconds = QUICK_SECONDS if args.quick else args.seconds or spec["run_seconds"]
    first = run_set(args.seed, seconds, 0, args.quick)
    second = run_set(args.seed, seconds, 0, args.quick)
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    bounds.update(OWN_BOUNDS)
    breaches = 0
    print(f"{'workload':<16}{'metric':<24}{'first':>14}{'second':>14}"
          f"{'difference':>12}{'bound':>8}")
    for workload in first:
        for name, bound in bounds.items():
            one = first[workload]["metrics"].get(name)
            two = second[workload]["metrics"].get(name)
            if one is None or two is None:
                continue
            difference = abs(two["value"] - one["value"]) / one["value"]
            breach = difference > bound
            breaches += breach
            print(f"{workload:<16}{name:<24}{one['value']:>14.3f}"
                  f"{two['value']:>14.3f}{difference:>11.1%} {bound:>7.0%}"
                  f"{'  BREACH' if breach else ''}")
        shares = [r[workload]["failed_share"] for r in (first, second)]
        breach = abs(shares[1] - shares[0]) > FAILED_SHARE_BOUND or max(shares) > 0
        breaches += breach
        print(f"{workload:<16}{'failed_share':<24}{shares[0]:>14.6f}"
              f"{shares[1]:>14.6f}{'':>12}{'+0.001':>8}"
              f"{'  BREACH' if breach else ''}")
    return 1 if breaches else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "repeat"):
        command = commands.add_parser(name)
        command.add_argument("--seed", type=int, default=11)
        command.add_argument("--seconds", type=float, default=None,
                             help="default: BENCHMARK.json's run_seconds")
        command.add_argument("--quick", action="store_true",
                             help="seconds-long smoke pass, one boot per run")
    run = commands.choices["run"]
    run.add_argument("--workload", default=None,
                     help="one workload in this process (the driver's form)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--traced", action="store_true",
                     help="all workloads: also make the traced run of each")
    args = parser.parse_args(argv)
    if args.command == "repeat":
        return repeat(args)
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else benchmark()["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
