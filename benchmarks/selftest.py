"""Show that the benchmark's output checks are not blind.

    python3 benchmarks/selftest.py --out benchmarks/out

Runs one small real sweep and checks that its report scores zero failed
checks, then that each injected defect (a failed check, a wrong count, a
missing identity or Schur row, wrong totals, a nonzero exit, no report)
scores above zero.  For fault probes, a sweep with no fault, or a report
whose failure sits where the fault cannot reach, must not count as
caught.  Prints one JSON line and exits 1 if any check is blind.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hookshift  # noqa: E402
import hookshift.cli  # noqa: E402

from checks import probe_caught, score_sweep  # noqa: E402
from workloads import ALL_IDS, FAULT_SWEEP, Sweep  # noqa: E402

SMALL = Sweep(ALL_IDS, 5, 3, 3)


def _inject_failure(r):
    agg = r["identities"]["THM_1_1"]
    agg["passed"] -= 1
    agg["failures"].append({"identity": "THM_1_1", "partition": "2,1", "corner_index": None,
                            "lhs": "1/1", "rhs": "2/1"})
    r["totals"]["passed"] -= 1
    r["totals"]["failed"] += 1


def _extra_check(r):
    r["identities"]["COR_4_4"]["checked"] += 1
    r["identities"]["COR_4_4"]["passed"] += 1
    r["totals"]["checked"] += 1
    r["totals"]["passed"] += 1


def _short_totals(r):
    r["totals"]["checked"] -= 1
    r["totals"]["passed"] -= 1


DEFECTS = {
    "one injected failure": (_inject_failure, 0),
    "one extra check": (_extra_check, 0),
    "totals one short": (_short_totals, 0),
    "missing identity": (lambda r: r["identities"].pop("EQ_4_6"), 0),
    "failed oracle row": (lambda r: r["theorem_1_2"][2].update(oracle="fail"), 0),
    "missing Schur row": (lambda r: r["theorem_1_2"].pop(), 0),
    "nonzero exit": (lambda r: None, 1),
}


def sweep_problems(out: Path) -> list[str]:
    path = out / f"selftest-{os.getpid()}.json"
    exit_code = hookshift.cli.main(SMALL.argv(str(path)))
    report = json.loads(path.read_text())
    path.unlink()
    problems = []
    if score_sweep(report, exit_code, SMALL):
        problems.append("a clean report scored as failing")
    if not score_sweep(None, 0, SMALL):
        problems.append("blind to: no report")
    for label, (mutate, code) in DEFECTS.items():
        bad = copy.deepcopy(report)
        mutate(bad)
        if not score_sweep(bad, code, SMALL):
            problems.append(f"blind to: {label}")
    return problems


def probe_problems() -> list[str]:
    lam = hookshift.Partition((2, 1))

    def probe(fault):
        config = hookshift.SweepConfig(
            max_n_identities=FAULT_SWEEP.max_n,
            max_n_theorem_1_2=FAULT_SWEEP.max_n_schur,
            max_n_oracles=FAULT_SWEEP.max_n_oracle,
            parallelism=1,
            fault=fault,
        )
        return json.loads(hookshift.render_report(hookshift.run_sweep(config)))

    caught = probe(hookshift.Fault(kind="hook", partition=lam, row=1, col=1))
    problems = []
    if not probe_caught(caught, (2, 1), FAULT_SWEEP):
        problems.append("a caught fault scored as missed")
    if probe_caught(probe(None), (2, 1), FAULT_SWEEP):
        problems.append("blind to: a probe no identity caught")
    elsewhere = copy.deepcopy(caught)
    for agg in elsewhere["identities"].values():
        for failure in agg["failures"]:
            failure["partition"] = "5,1"
    if probe_caught(elsewhere, (2, 1), FAULT_SWEEP):
        problems.append("blind to: a failure the fault cannot reach")
    short = copy.deepcopy(caught)
    short["totals"]["checked"] -= 1
    if probe_caught(short, (2, 1), FAULT_SWEEP):
        problems.append("blind to: a probe with a wrong check count")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(exist_ok=True)
    problems = sweep_problems(args.out) + probe_problems()
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"ok": not problems, "problems": problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
