"""One child process of the benchmark: import hookshift from this
checkout, build one workload's inputs, run its timed body and print one
JSON line with the measurements.

    python3 benchmarks/body.py WORKLOAD MODE --out DIR [--seed N] [--seconds S] [--jobs J]

MODE is ``setup`` (stop at the first timed call), ``run`` or ``trace``
(the run with every layer call traced).  A sweep workload runs one sweep
through ``hookshift.cli.main``; ``faults`` runs seed-shuffled passes over
its probes, at least one, while another pass fits in ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import hookshift  # noqa: E402
import hookshift.cli  # noqa: E402

from checks import partitions, probe_caught  # noqa: E402
from spans import Tracer, instrument  # noqa: E402
from workloads import FAULT_MAX_SIZE, FAULT_SWEEP, SWEEPS  # noqa: E402


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def fault_probes() -> list[tuple[tuple[int, ...], object]]:
    """Every hook fault and every g-factor fault, delta +1, on every
    partition of size 1..FAULT_MAX_SIZE, as (parts, SweepConfig)."""
    configs = []
    for n in range(1, FAULT_MAX_SIZE + 1):
        for parts in partitions(n):
            lam = hookshift.Partition(parts)
            faults = [
                hookshift.Fault(kind="hook", partition=lam, row=r, col=c)
                for r, length in enumerate(parts, start=1)
                for c in range(1, length + 1)
            ]
            faults += [
                hookshift.Fault(kind="g-factor", partition=lam, index=i)
                for i in range(1, n + 1)
            ]
            configs += [
                (parts, hookshift.SweepConfig(
                    max_n_identities=FAULT_SWEEP.max_n,
                    max_n_theorem_1_2=FAULT_SWEEP.max_n_schur,
                    max_n_oracles=FAULT_SWEEP.max_n_oracle,
                    parallelism=1,
                    fault=f,
                ))
                for f in faults
            ]
    return configs


def run_sweep_workload(workload: str, out: Path, jobs: int | None, tracer) -> dict:
    sweep = SWEEPS[workload]
    report_path = out / f"report-{workload}-{os.getpid()}.json"
    argv = sweep.argv(str(report_path), jobs)
    ready = time.monotonic()
    if tracer is not None:
        instrument(tracer)
        cache_before = tracer.cache_counts()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    exit_code = hookshift.cli.main(argv)
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    result = {
        "ready": ready,
        "wall": [wall],
        "cpu": [cpu],
        "rss": peak_rss_mb(),
        "exit_code": exit_code,
        "report": str(report_path),
    }
    if tracer is not None:
        result["trace"] = trace_summary(tracer, cache_before)
    return result


def run_faults(seed: int, seconds: float, tracer) -> dict:
    probes = fault_probes()
    order = random.Random(seed)
    ready = time.monotonic()
    if tracer is not None:
        instrument(tracer)
        cache_before = tracer.cache_counts()
    latencies, walls, cpus, missed = [], [], [], []
    first = time.perf_counter()
    while True:
        order.shuffle(probes)
        cpu0 = cpu_seconds()
        pass_start = time.perf_counter()
        for parts, config in probes:
            start = time.perf_counter()
            try:
                text = hookshift.render_report(hookshift.run_sweep(config))
            except Exception as exc:  # a probe that raises is a failed probe
                latencies.append(time.perf_counter() - start)
                missed.append(f"{config.fault.to_json()}: {exc!r}")
                continue
            latencies.append(time.perf_counter() - start)
            if not probe_caught(json.loads(text), parts, FAULT_SWEEP):
                missed.append(json.dumps(config.fault.to_json()))
        walls.append(time.perf_counter() - pass_start)
        cpus.append(cpu_seconds() - cpu0)
        if time.perf_counter() - first + statistics.median(walls) > seconds:
            break
    result = {
        "ready": ready,
        "wall": walls,
        "cpu": cpus,
        "rss": peak_rss_mb(),
        "latencies": latencies,
        "attempted": len(latencies),
        "missed": missed,
    }
    if tracer is not None:
        result["trace"] = trace_summary(tracer, cache_before)
    return result


def trace_summary(tracer: Tracer, cache_before: dict) -> dict:
    after = tracer.cache_counts()
    return {
        "stats": tracer.stats,
        "spans": tracer.spans,
        "units": tracer.units,
        "by_key": [[ident, n, s] for (ident, n), s in sorted(tracer.by_key.items())],
        "checks": tracer.checks,
        "cache": {
            name: [after[name][0] - cache_before[name][0], after[name][1] - cache_before[name][1]]
            for name in after
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=(*SWEEPS, "faults"))
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args()

    if args.mode == "setup":
        if args.workload == "faults":
            fault_probes()
        else:
            SWEEPS[args.workload].argv(str(args.out / "unused.json"), args.jobs)
        result = {"ready": time.monotonic()}
    else:
        tracer = Tracer() if args.mode == "trace" else None
        if args.workload == "faults":
            result = run_faults(args.seed, args.seconds, tracer)
        else:
            result = run_sweep_workload(args.workload, args.out, args.jobs, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
