"""Output checks that do not trust hookshift.

Expected check counts come from this file's own partition enumeration:
one check per partition for whole-partition identities, one per corner
row (distinct part) for the per-corner ones, and the Schur checks that
the bounds select.  A sweep is scored against them; a fault probe is
scored by whether some identity failed, and only where the fault can
reach.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from workloads import PER_CORNER, Sweep


def partitions(n: int, largest: int | None = None):
    """All partitions of n as weakly decreasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def additions(parts: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The partitions made by adding one box to ``parts``."""
    out = {parts + (1,)}
    for i, p in enumerate(parts):
        if i == 0 or parts[i - 1] > p:
            out.add(parts[:i] + (p + 1,) + parts[i + 1:])
    return out


def parse_parts(text: str) -> tuple[int, ...]:
    """Read a partition as a report writes it: "2,1", "3", "53," or "0"."""
    text = text.rstrip(",")
    return () if text == "0" else tuple(int(t) for t in text.split(","))


@dataclass(frozen=True)
class Expected:
    per_identity: dict  # identity -> checks
    theorem: dict  # n -> (equality, recurrences, oracle) as bools
    total: int


@functools.cache
def expected(sweep: Sweep) -> Expected:
    oracle = min(sweep.max_n_oracle, sweep.max_n)
    per_identity = {}
    for ident in sweep.identities:
        count = 0
        for n in range(1, sweep.max_n + 1):
            for lam in partitions(n):
                count += len(set(lam)) if ident in PER_CORNER else 1
        per_identity[ident] = count
    theorem = {n: (True, n >= 1, n <= oracle) for n in range(sweep.max_n_schur + 1)}
    total = sum(per_identity.values()) + sum(sum(row) for row in theorem.values())
    return Expected(per_identity, theorem, total)


def score_sweep(report: dict | None, exit_code: int | None, sweep: Sweep) -> int:
    """Number of failed checks in one clean sweep, out of ``expected(sweep).total``.

    A nonzero exit or a missing report fails every check.  Otherwise a
    failed check, a per-identity count off by k, or a Schur row that is
    missing, failed or unexpected each add to the count, as read from the
    per-identity section and from the totals; the larger reading counts.
    """
    exp = expected(sweep)
    if exit_code != 0 or not isinstance(report, dict):
        return exp.total
    try:
        rows = report["identities"]
        bad = sum(exp.per_identity[i] for i in exp.per_identity if i not in rows)
        for ident, agg in rows.items():
            want = exp.per_identity.get(ident, 0)
            failed = agg["checked"] - agg["passed"]
            bad += abs(agg["checked"] - want) + failed + abs(len(agg["failures"]) - failed)
        seen = {row["n"]: row for row in report["theorem_1_2"]}
        for n in set(seen) | set(exp.theorem):
            row = seen.get(n, {})
            wants = exp.theorem.get(n, (False, False, False))
            for key, want in zip(("equality", "recurrences", "oracle"), wants):
                status = row.get(key)
                bad += status != ("pass" if want else None)
        totals = report["totals"]
        from_totals = (
            abs(totals["checked"] - exp.total)
            + totals["failed"]
            + abs(totals["passed"] + totals["failed"] - totals["checked"])
        )
    except (KeyError, TypeError, AttributeError):
        return exp.total
    return min(exp.total, max(bad, from_totals))


def probe_caught(report: dict, fault_parts: tuple[int, ...], sweep: Sweep) -> bool:
    """Whether a fault probe's report shows the fault was caught.

    Caught means: the sweep covered exactly the expected checks, at least
    one identity failed, and every failure sits at the faulted partition
    or at a partition one box larger (the only checks that read its
    perturbed hook product or g-polynomial).  The Schur rows never read
    the fault, so they must pass.
    """
    exp = expected(sweep)
    try:
        if report["totals"]["checked"] != exp.total or report["totals"]["failed"] < 1:
            return False
        reach = {fault_parts} | additions(fault_parts)
        failures = [f for agg in report["identities"].values() for f in agg["failures"]]
        if not failures or any(parse_parts(f["partition"]) not in reach for f in failures):
            return False
        return all(
            row[key] in ("pass", None)
            for row in report["theorem_1_2"]
            for key in ("equality", "recurrences", "oracle")
        )
    except (KeyError, TypeError, AttributeError, ValueError):
        return False
