"""hookshift benchmark: time to a verified bound, CPU and memory, per workload.

    python3 benchmarks/run.py --workload catalog --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py and README.md): catalog, wide, faults.  Each
is a closed loop with one client: the next sweep (or pass of fault
probes) starts when the previous one returns, at least once, and while a
typical one still ends within ``--seconds``.  Every sweep runs in a fresh
process, as a user's `hookshift sweep` does; the faults probes share one
process.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the run is repeated at one worker with every layer call traced, the
per-layer metrics are printed and the spans are written to
``benchmarks/out/trace-<workload>-seed<seed>.json``.  Every output is
checked against counts derived without hookshift.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import expected, score_sweep
from spans import LAYERS
from workloads import ALL_IDS, SWEEPS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PACKAGE = ROOT / "src" / "hookshift"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150
# column names of the rows in each traced iteration of a trace file
TRACE_FIELDS = {
    "stats": ["calls", "seconds", "self_seconds"],
    "spans": ["name", "start_s", "end_s", "parent_span"],
    "units": ["identity_and_n", "start_s", "end_s", "parent_span"],
    "by_key": ["identity", "n", "seconds"],
    "checks": ["seconds", "checks"],
    "cache": ["hits", "misses"],
}


def child(args: list[str]) -> tuple[dict | None, str]:
    """Run one child to completion and return its JSON line (None if it
    failed) and its stderr.  A child that overruns is killed with its
    process group, so no pool worker outlives the run."""
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, err + "\ntimed out"
    if proc.returncode != 0 or not out.strip():
        return None, err
    return json.loads(out.strip().splitlines()[-1]), err


def body(workload: str, mode: str, seed: int, seconds: float = 0.0, jobs: int | None = None):
    args = [str(BENCH / "body.py"), workload, mode, "--out", str(OUT), "--seed", str(seed),
            "--seconds", str(seconds)]
    if jobs is not None:
        args += ["--jobs", str(jobs)]
    return child(args)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh-process set-up times: interpreter start, import and input
    construction, up to the first timed call.  The first sample warms the
    bytecode and file caches and is dropped."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        spawned = time.monotonic()
        result, err = body(workload, "setup", seed)
        if result is None:
            raise RuntimeError(f"set-up child failed:\n{err}")
        samples.append(result["ready"] - spawned)
    return samples[1:]


def another(start: float, seconds: float, durations: list[float]) -> bool:
    """Closed-loop stopping rule: run at least once, then start another
    iteration only if a typical one still ends within ``seconds``."""
    if not durations:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def context(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "hookshift_commit": git_commit(),
        "hookshift_source_sha256": digest.hexdigest()[:16],
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, read as files; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Operations attempted and failed across every iteration of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def sweep(self, workload: str, result: dict | None, err: str) -> dict | None:
        sweep = SWEEPS[workload]
        report = None
        if result is not None:
            path = Path(result["report"])
            try:
                report = json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                err += f"\nreport unreadable: {exc}"
            path.unlink(missing_ok=True)
        failed = score_sweep(report, None if result is None else result["exit_code"], sweep)
        self.attempted += expected(sweep).total
        self.failed += failed
        if failed:
            self.notes.append(f"{workload}: {failed} failed checks {err.strip()[-500:]}")
        return result

    def faults(self, result: dict | None, err: str) -> dict | None:
        if result is None:
            self.attempted += 1
            self.failed += 1
            self.notes.append(f"faults child failed: {err.strip()[-500:]}")
            return None
        self.attempted += result["attempted"]
        self.failed += len(result["missed"])
        self.notes += [f"probe not caught: {m}" for m in result["missed"][:20]]
        return result


def measure(args, tally: Tally) -> tuple[dict, dict]:
    """The untraced closed loop; returns the end-to-end metrics and the
    samples they came from."""
    setup = setup_seconds(args.workload, args.seed)
    if args.workload == "faults":
        result = tally.faults(*body("faults", "run", args.seed, args.seconds))
        if result is None:
            raise RuntimeError("faults child failed")
        walls, cpus, rss = result["wall"], result["cpu"], [result["rss"]]
        latencies = result["latencies"]
    else:
        walls, cpus, rss, iterations = [], [], [], []
        start = time.perf_counter()
        while another(start, args.seconds, iterations):
            began = time.perf_counter()
            result = tally.sweep(args.workload, *body(args.workload, "run", args.seed))
            if result is None:
                raise RuntimeError(f"{args.workload} sweep failed")
            walls += result["wall"]
            cpus += result["cpu"]
            rss.append(result["rss"])
            iterations.append(time.perf_counter() - began)
        # a sweep is this workload's request, so its latency is the sweep's
        latencies = walls
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "probe_s.p95": (percentile(latencies, 0.95), "s"),
    }
    samples = {
        # printed but not a BENCHMARK.json metric: on a shared host the
        # median probe flips between the host's fast and slow states
        "probe_s.p50": statistics.median(latencies),
        "requests": len(latencies),
        "wall_samples": walls,
        "cpu_samples": cpus,
        "setup_samples": setup,
    }
    return metrics, samples


def traced(args, tally: Tally) -> tuple[dict, dict]:
    """Pairs of untraced and traced iterations at one worker, as many as
    fit in ``--seconds``; returns per-layer metrics and the trace."""
    workload = args.workload
    jobs = None if workload == "faults" else SWEEPS[workload].jobs
    record = tally.faults if workload == "faults" else (lambda r, e: tally.sweep(workload, r, e))
    untraced, traced_walls, summaries, native, iterations = [], [], [], [], []
    start = time.perf_counter()
    while another(start, args.seconds, iterations):
        began = time.perf_counter()
        if jobs not in (None, 1):
            result = record(*body(workload, "run", args.seed, jobs=jobs))
            native += result["wall"] if result else []
        plain = record(*body(workload, "run", args.seed, jobs=1))
        deep = record(*body(workload, "trace", args.seed, jobs=1))
        if plain is None or deep is None:
            raise RuntimeError(f"{workload} traced iteration failed")
        untraced.append(sum(plain["wall"]))
        traced_walls.append(sum(deep["wall"]))
        summaries.append(deep["trace"])
        iterations.append(time.perf_counter() - began)
    untraced_s = statistics.median(untraced)
    traced_s = statistics.median(traced_walls)
    metrics = layer_metrics(summaries)

    # unit seconds carry the tracing overhead; scale them back to untraced
    # time before comparing them with an untraced wall
    workers = jobs or 1
    scale = untraced_s / traced_s
    ideal = max(metrics["harness.unit_s.sum"][0] * scale / workers,
                metrics["harness.unit_s.max"][0] * scale)
    wall = statistics.median(native) if native else untraced_s
    metrics["harness.makespan_ratio"] = (wall / ideal if ideal else 0.0, "ratio")
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.traced_wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    trace_doc = {
        "untraced_wall_s": untraced,
        "traced_wall_s": traced_walls,
        "untraced_wall_s_at_workload_jobs": native,
        "iterations": summaries,
    }
    return metrics, trace_doc


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics, each the mean over the traced iterations."""
    def mean(values):
        return statistics.fmean(values) if values else 0.0

    def stat(name, field):
        return mean([s["stats"].get(name, [0, 0.0, 0.0])[field] for s in summaries])

    def hit_ratio(name):
        hits = sum(s["cache"][name][0] for s in summaries)
        misses = sum(s["cache"][name][1] for s in summaries)
        return hits / (hits + misses) if hits + misses else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in ("partitions.enumerate_partitions", "partitions.corner_sets",
                 "partitions.hook_product", "polynomials.product_of_linear_factors",
                 "polynomials.shift", "polynomials.difference", "polynomials.mul",
                 "identities.g_poly"):
        m[f"{name}.s"] = (stat(name, 1), "s")
        m[f"{name}.calls"] = (stat(name, 0), "count")
    m["partitions.hook_product.hit_ratio"] = (hit_ratio("partitions.hook_product"), "ratio")
    m["identities.g_poly.hit_ratio"] = (hit_ratio("identities.g_poly"), "ratio")
    for ident in ALL_IDS:
        m[f"identities.check.{ident}.s"] = (
            mean([s["checks"].get(ident, [0.0, 0])[0] for s in summaries]), "s")
        m[f"identities.check.{ident}.checks"] = (
            mean([s["checks"].get(ident, [0.0, 0])[1] for s in summaries]), "count")
    for name in ("schur_lhs", "schur_rhs", "check_theorem_1_2", "check_schur_recurrences",
                 "to_monomial"):
        m[f"schur.{name}.s"] = (stat(f"schur.{name}", 1), "s")
    m["schur.kostka.calls"] = (stat("schur.kostka", 0), "count")
    unit_s = [[end - begin for _, begin, end, _ in s["units"]] for s in summaries]
    m["harness.units"] = (mean([len(u) for u in unit_s]), "count")
    m["harness.unit_s.max"] = (mean([max(u, default=0.0) for u in unit_s]), "s")
    m["harness.unit_s.sum"] = (mean([sum(u) for u in unit_s]), "s")
    m["harness.run_sweep.self_s"] = (stat("harness.run_sweep", 2), "s")
    m["harness.render_report.s"] = (stat("harness.render_report", 1), "s")
    m["cli.main.self_s"] = (stat("cli.main", 2), "s")
    for layer in LAYERS:
        names = {n for s in summaries for n in s["stats"] if n.startswith(layer + ".")}
        m[f"{layer}.self_s"] = (sum(stat(n, 2) for n in names), "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no hookshift sources at {PACKAGE}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    OUT.mkdir(exist_ok=True)

    ctx = context(args)
    print("context " + json.dumps(ctx, sort_keys=True))
    selftest, err = child([str(BENCH / "selftest.py"), "--out", str(OUT)])
    if selftest is None or not selftest.get("ok"):
        print(f"error: the output check's self-test failed\n{err}", file=sys.stderr)
        return 1

    tally = Tally()
    try:
        if args.trace:
            metrics, trace_doc = traced(args, tally)
            info = {}
        else:
            metrics, info = measure(args, tally)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for note in tally.notes[:20]:
            print(f"failure: {note}", file=sys.stderr)
        return 1
    error_frac = tally.failed / tally.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_frac {error_frac:.6g} ratio ({tally.failed} of {tally.attempted} operations)")
    for note in tally.notes[:20]:
        print(f"failure: {note}")
    if info:
        print("samples " + json.dumps(info))
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_doc = {"context": ctx, "error_frac": error_frac,
                     "metrics": {k: v for k, (v, _) in metrics.items()},
                     "fields": TRACE_FIELDS, **trace_doc}
        path.write_text(json.dumps(trace_doc))
        print(f"trace written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
