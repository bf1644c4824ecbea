"""Sweep driver: run the identity catalog over all partitions up to a
bound, in parallel, and emit deterministic machine-readable reports.

The work unit is one size n over all selected identities: a worker
enumerates the partitions of n once, and ``identities.outcomes`` runs
each identity's check on each, through one Workspace that builds each
partition's data once and is dropped with the unit, and decides each
comparison; the unit only files the outcomes into rows.  Only bounds
and the fault cross process boundaries, and a unit returns one row per
identity.  The Schur identity is one more unit, a single pass over its
degrees that builds each degree's two sides once, cleared by n!, and
returns one row per degree: Schur-basis equality, the two recurrences,
and an oracle that evaluates both sides at one point.  Results are
merged by a deterministic sort, which makes report contents independent
of worker count and completion order.
Wall-clock time and the worker count live in a separate "timing" object
excluded from the determinism guarantee.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import closing
from dataclasses import dataclass, field

from .identities import Fault, IdentityId, Workspace, outcomes
from .partitions import enumerate_partitions, partition_count
from .schur import (
    check_at_point,
    check_schur_recurrences,
    check_theorem_1_2,
    p1_e_table,
    schur_lhs,
    schur_rhs,
)

CATALOG = tuple(IdentityId)
_FORMATS = ("json", "csv", "text")


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep and how.

    ``identities`` is a nonempty selection of IdentityId, normalized to
    catalog order.  ``parallelism`` is a worker count or "auto" (one
    worker per CPU this process may run on).  ``fault`` is the test hook
    for sensitivity runs and leaves ordinary sweeps untouched.
    """

    max_n_identities: int = 25
    max_n_theorem_1_2: int = 9
    max_n_oracles: int = 8
    identities: tuple[IdentityId, ...] = CATALOG
    parallelism: object = "auto"
    output_format: str = "json"
    fail_fast: bool = False
    capture_witnesses: bool = False
    fault: Fault | None = None

    def __post_init__(self):
        for name in ("max_n_identities", "max_n_theorem_1_2", "max_n_oracles"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.max_n_oracles > self.max_n_theorem_1_2:
            # the oracle runs only at the Schur degrees
            raise ValueError("oracle bound must not exceed the Schur bound")
        if self.fault is not None and self.fault.partition.size > self.max_n_identities:
            raise ValueError(
                f"fault partition {self.fault.partition} lies beyond "
                f"max_n_identities={self.max_n_identities}, so the sweep could not reach it"
            )
        if self.output_format not in _FORMATS:
            raise ValueError(f"unknown output format {self.output_format!r}")
        chosen = tuple(self.identities)
        for i in chosen:
            if not isinstance(i, IdentityId):
                raise ValueError(f"not an IdentityId: {i!r}")
        if not chosen:
            raise ValueError("no identities selected, so the sweep would check nothing")
        object.__setattr__(self, "identities", tuple(i for i in CATALOG if i in chosen))
        v = self.parallelism
        if v != "auto" and (isinstance(v, bool) or not isinstance(v, int) or v < 1):
            raise ValueError(f"parallelism must be 'auto' or a positive integer, got {v!r}")

    def workers(self) -> int:
        if self.parallelism == "auto":
            # an affinity mask or a cpuset may allow fewer CPUs than exist
            return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
        return self.parallelism

    def to_json(self) -> dict:
        return {
            "max_n_identities": self.max_n_identities,
            "max_n_theorem_1_2": self.max_n_theorem_1_2,
            "max_n_oracles": self.max_n_oracles,
            "identities": [i.value for i in self.identities],
            "output_format": self.output_format,
            "fail_fast": self.fail_fast,
            "capture_witnesses": self.capture_witnesses,
            "fault": self.fault.to_json() if self.fault else None,
        }


@dataclass
class SweepReport:
    """Aggregated sweep results; deterministic given the config."""

    config: SweepConfig
    identity_rows: list[dict] = field(default_factory=list)
    theorem_rows: list[dict] = field(default_factory=list)
    wall_time: float = 0.0
    workers: int = 1

    def per_identity(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for row in self.identity_rows:
            agg = out.setdefault(
                row["identity"], {"checked": 0, "passed": 0, "failures": []}
            )
            agg["checked"] += row["checked"]
            agg["passed"] += row["passed"]
            agg["failures"].extend(row["failures"])
            if self.config.capture_witnesses:
                agg.setdefault("witnesses", []).extend(row["witnesses"])
        return out

    def totals(self) -> dict[str, int]:
        checked = sum(r["checked"] for r in self.identity_rows)
        passed = sum(r["passed"] for r in self.identity_rows)
        for row in self.theorem_rows:
            statuses = _statuses(row)
            checked += len(statuses)
            passed += statuses.count("pass")
        return {"checked": checked, "passed": passed, "failed": checked - passed}

    @property
    def all_passed(self) -> bool:
        return self.totals()["failed"] == 0

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "identities": self.per_identity(),
            "theorem_1_2": self.theorem_rows,
            "totals": self.totals(),
            "timing": {"wall_seconds": self.wall_time, "workers": self.workers},
        }


def _identity_unit(
    n: int, identities: tuple[IdentityId, ...], fault: Fault | None, capture: bool
) -> list[dict]:
    ws = Workspace(fault)
    rows = [{"identity": identity.value, "n": n, "checked": 0, "passed": 0,
             "failures": [], "witnesses": []} for identity in identities]
    # the unit proves its own coverage: a strictly decreasing run of p(n)
    # partitions of n is every partition of n, each once
    lams = list(enumerate_partitions(n))
    if not all(map(tuple.__gt__, lams, lams[1:])):
        raise RuntimeError(f"partitions of {n} not in strictly decreasing order")
    if len(lams) != partition_count(n):
        raise RuntimeError(f"enumerated {len(lams)} partitions of {n}, not p({n}) = {partition_count(n)}")
    counts = [0] * len(identities)
    for k, outcome in outcomes(identities, map(ws.context, lams), counts, capture):
        entry = outcome.to_json()
        if outcome.passed:
            rows[k]["witnesses"].append(entry)
        else:
            del entry["status"]
            rows[k]["failures"].append(entry)
    for row, checked in zip(rows, counts):
        row["checked"] = checked
        row["passed"] = checked - len(row["failures"])
    return rows


def _theorem_unit(max_n: int, max_n_oracles: int) -> list[dict]:
    # each degree's two sides serve its three checks and the next degree's
    # recurrences, and its p1^k e_(n-k) table the next degree's left side
    rows, prev, table = [], None, ()
    for n in range(max_n + 1):
        table = p1_e_table(n, table)
        sides = schur_lhs(n, table), schur_rhs(n)
        # a correct right side has p(n) terms, as every g(x+n)/H is nonzero
        if len(sides[1]) != partition_count(n):
            raise RuntimeError(f"schur_rhs({n}) has {len(sides[1])} terms, not p({n}) = {partition_count(n)}")
        row = {"n": n, **_verdict("equality", check_theorem_1_2(n, sides))}
        if prev is None:
            row["recurrences"] = None  # the recurrences start at degree 1
        else:
            row.update(_verdict("recurrences", check_schur_recurrences(n, sides, prev)))
        # A spot check at one point, through the term maps' values only: the
        # one check that fails when both sides are wrong the same way.
        row["oracle"] = None if n > max_n_oracles else "pass" if check_at_point(n, sides) else "fail"
        rows.append(row)
        prev = sides
    return rows


def _verdict(key: str, witness: dict | None) -> dict:
    """A check's status under ``key``, followed by its witness if it failed."""
    return {key: "pass"} if witness is None else {key: "fail", f"{key}_witness": witness}


def _statuses(row: dict) -> list[str]:
    """The statuses of the checks a Schur-degree row ran."""
    return [row[k] for k in ("equality", "recurrences", "oracle") if row[k] is not None]


def _task_failed(row: dict) -> bool:
    if "identity" in row:
        return bool(row["failures"])
    return "fail" in _statuses(row)


def _completed(units: list[tuple], workers: int):
    """Yield each unit's rows as the unit finishes; closing the generator
    cancels the units that have not started.  A pool takes the units in
    reverse order, so the Schur pass, which run_sweep appends last, and
    the largest sizes start first and the small ones fill in around them."""
    if workers == 1:
        for fn, *args in units:
            yield fn(*args)
        return
    # imported here: one-worker sweeps and every other command never need it
    from concurrent.futures import ProcessPoolExecutor, as_completed

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for fut in as_completed([pool.submit(*unit) for unit in reversed(units)]):
            yield fut.result()
    finally:
        pool.shutdown(cancel_futures=True)


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run every selected check and merge the outcomes deterministically.

    Verification failures are data in the report, not errors.  With
    fail_fast, outstanding work is cancelled after the first failing work
    unit, so such a report covers only the units that finished: whole
    sizes of the identity sweep, and all Schur degrees or none.
    """
    start = time.perf_counter()
    units: list[tuple] = [
        (_identity_unit, n, config.identities, config.fault, config.capture_witnesses)
        for n in range(1, config.max_n_identities + 1)
    ]
    units.append((_theorem_unit, config.max_n_theorem_1_2, config.max_n_oracles))
    # a pool forks all its workers at once, so it gets no more than units
    workers = min(config.workers(), len(units))
    rows: list[dict] = []
    with closing(_completed(units, workers)) as results:
        for unit_rows in results:
            rows += unit_rows
            if config.fail_fast and any(map(_task_failed, unit_rows)):
                break

    order = {identity.value: k for k, identity in enumerate(CATALOG)}
    identity_rows = sorted(
        (r for r in rows if "identity" in r),
        key=lambda r: (order[r["identity"]], r["n"]),
    )
    # the one Schur unit returns its rows in degree order
    theorem_rows = [r for r in rows if "identity" not in r]
    return SweepReport(
        config=config,
        identity_rows=identity_rows,
        theorem_rows=theorem_rows,
        wall_time=time.perf_counter() - start,
        workers=workers,
    )


def render_report(report: SweepReport) -> str:
    """Render in the config's output format (json, csv or text);
    bit-stable for identical reports."""
    fmt = report.config.output_format
    if fmt == "json":
        return _json(report.to_json(), "")
    if fmt == "csv":
        return _render_csv(report)
    return _render_text(report)


def _json(o, indent: str) -> str:
    """o as json.dumps(o, indent=2) writes it.  json.dumps with an indent
    takes the pure-Python encoder, whose closures are reference cycles
    that each call leaves for the cyclic collector; this leaves none."""
    t = type(o)
    if t is str:
        return json.encoder.encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o)
    if t is float:
        return float.__repr__(o)
    if t is bool:
        return "true" if o else "false"
    if o is None:
        return "null"
    if not o:
        return "{}" if t is dict else "[]"
    inner = indent + "  "
    if t is dict:
        items = [f"{json.encoder.encode_basestring_ascii(k)}: {_json(v, inner)}"
                 for k, v in o.items()]
        opening, closing = "{", "}"
    else:
        items = [_json(v, inner) for v in o]
        opening, closing = "[", "]"
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"


def _render_csv(report: SweepReport) -> str:
    lines = ["identity,n,checked,passed,failed"]
    for row in report.identity_rows:
        failed = row["checked"] - row["passed"]
        lines.append(f"{row['identity']},{row['n']},{row['checked']},{row['passed']},{failed}")
    for row in report.theorem_rows:
        statuses = _statuses(row)
        passed = statuses.count("pass")
        lines.append(f"THM_1_2,{row['n']},{len(statuses)},{passed},{len(statuses) - passed}")
    return "\n".join(lines) + "\n"


def _render_text(report: SweepReport) -> str:
    per = report.per_identity()
    width = max((len(name) for name in per), default=8)
    lines = [f"identity sweep up to n = {report.config.max_n_identities}"]
    for name, agg in per.items():
        failed = agg["checked"] - agg["passed"]
        mark = "ok" if failed == 0 else f"{failed} FAILED"
        lines.append(f"  {name:<{width}}  checked {agg['checked']:>6}  {mark}")
    if report.theorem_rows:
        worst = "FAILED" if any(map(_task_failed, report.theorem_rows)) else "ok"
        ns = [row["n"] for row in report.theorem_rows]
        lines.append(f"  theorem_1_2 for n in {min(ns)}..{max(ns)}: {worst}")
    totals = report.totals()
    lines.append(
        f"totals: checked {totals['checked']}, passed {totals['passed']}, failed {totals['failed']}"
    )
    lines.append(f"wall time: {report.wall_time:.2f}s")
    return "\n".join(lines) + "\n"
