"""Fail when a statement of a module in MODULES goes unrun.

The library's six modules keep only what the library runs.  This script
traces them, in one process, under every CLI command with each form of
partition it parses, sweeps on one worker and on a pool, to a file, to
an output that cannot be opened and to a stdout that takes no more, a
hook-faulted and a g-factor-faulted witness sweep in each output format,
a faulted fail-fast sweep, two Schur passes with a wrong right side
planted at degree 3, a sweep to a new file aborted by an exception
planted in a work unit, and the README's python blocks.  It then
lists each statement inside a function, an ``except`` body's included,
that no line event reached, and exits 1 if any is left.  Exempt are a
``raise`` or a ``return NotImplemented`` (both end in an error), the
body of a ``__repr__``, and the entries of ALLOWED, each with its
reason.  Its last line gives the number of statements inside
functions, in total and per module, as the measure of the library's
size.

Run it from the repository root:

    PYTHONPATH=src python tests/unrun_lines.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

from hookshift import Fault, IdentityId, Partition, SweepConfig, render_report, run_sweep
from hookshift import cli, harness, identities, partitions, polynomials, schur
from hookshift.polynomials import ExactPolynomial

ROOT = Path(__file__).resolve().parent.parent
MODULES = (polynomials, schur, identities, partitions, harness, cli)

# (module file, function, statement as written): why nothing here runs it
ALLOWED = {
    ("polynomials.py", "ExactPolynomial.__str__", 'return "0"'):
        "no command prints a zero polynomial",
    ("polynomials.py", "ExactPolynomial.__str__", 'coeff = f"({mag})"'):
        "the commands print only polynomials with integer coefficients",
}

PARTITION = "55331"
FAULTS = (
    Fault(kind="hook", partition=Partition((3, 2, 1)), row=1, col=2),
    Fault(kind="g-factor", partition=Partition((3, 2, 1)), index=2),
)


def workload() -> None:
    """Every CLI command, faulted witness sweeps and the README blocks."""
    commands = [
        ["hooks", PARTITION], ["gpoly", PARTITION], ["corners", PARTITION],
        ["syt", PARTITION], ["schur-lhs", "4"], ["schur-rhs", "4"], ["example-55331"],
        ["corners", "1"],  # prints the empty removal
        ["gpoly", "x"],  # not a partition
    ]
    commands += [["syt", form] for form in ("5,3", "53,", "10", "0")]
    commands += [["check", i.value, PARTITION] for i in IdentityId]
    commands += [["sweep", "--max-n", "7", "--max-n-schur", "4", "--jobs", "1",
                  "--witnesses", "--format", fmt] for fmt in ("json", "csv", "text")]
    # three units, so a pool starts at most three workers
    small = ["sweep", "--max-n", "2", "--max-n-schur", "1", "--max-n-oracle", "1"]
    with tempfile.TemporaryDirectory() as tmp:
        commands += [small + ["--jobs", "2"], small + ["--jobs", "auto"],
                     small + ["--jobs", "1", "--identities", "THM_1_1,COR_4_4"],
                     small + ["--jobs", "1", "--output", f"{tmp}/report.json"],
                     small + ["--jobs", "1", "--output", f"{tmp}/missing/report.json"]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in commands:
                cli.main(argv)
            # an exception inside a work unit aborts the sweep, and removes
            # the output file that the sweep created
            with mock.patch.object(harness, "enumerate_partitions",
                                   side_effect=RuntimeError("planted")):
                cli.main(small + ["--jobs", "1", "--output", f"{tmp}/aborted.json"])
    # a stdout whose reader has gone
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as closed, contextlib.redirect_stdout(closed), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(["gpoly", PARTITION])
    run_sweep(SweepConfig(max_n_identities=7, max_n_theorem_1_2=1, max_n_oracles=1,
                          parallelism=1, fail_fast=True, fault=FAULTS[0]))
    for fault in FAULTS:
        for fmt in ("json", "csv", "text"):
            config = SweepConfig(max_n_identities=7, max_n_theorem_1_2=4, max_n_oracles=4,
                                 parallelism=1, output_format=fmt, capture_witnesses=True,
                                 fault=fault)
            render_report(run_sweep(config))
    # no fault reaches the Schur pass, so plant a wrong right side at
    # degree 3: a constant fails all three checks, an x^4 term the spot
    # check's degree guard
    for error in (ExactPolynomial((1,)), ExactPolynomial((0, 0, 0, 0, 1))):
        with mock.patch.object(harness, "schur_rhs", planted_rhs(error)):
            run_sweep(SweepConfig(max_n_identities=1, max_n_theorem_1_2=4, max_n_oracles=4,
                                  parallelism=1))
    namespace: dict = {}
    for block in re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        exec(compile(block, "README.md", "exec"), namespace)


def planted_rhs(error):
    """harness.schur_rhs with ``error`` added to one coefficient at degree 3."""
    schur_rhs = harness.schur_rhs

    def planted(n):
        side = schur_rhs(n)
        if n == 3:
            lam = next(iter(side))
            side[lam] += error
        return side

    return planted


def traced_lines(paths: set[str]) -> set[tuple[str, int]]:
    """The (file, line) pairs of the files in paths that ran under the
    workload."""
    hit: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename in paths else None

    sys.settrace(global_)
    try:
        workload()
    finally:
        sys.settrace(None)
    return hit


def statements(tree: ast.Module):
    """(function, statement, its lines) for each statement inside a
    function; a compound statement owns only its header lines."""
    def walk(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from walk(child, scope + [child.name], isinstance(child, ast.FunctionDef))
                continue
            if isinstance(child, ast.excepthandler):
                yield from walk(child, scope, in_function)
                continue
            if not isinstance(child, ast.stmt):
                continue
            if in_function and not _is_docstring(child):
                body = getattr(child, "body", None)
                last = body[0].lineno - 1 if body else child.end_lineno
                yield ".".join(scope), child, range(child.lineno, last + 1)
            yield from walk(child, scope, in_function)

    yield from walk(tree, [], False)


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
        and isinstance(stmt.value.value, str)


def _exempt(function: str, stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.Raise) or function.endswith(".__repr__"):
        return True
    return isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Name) \
        and stmt.value.id == "NotImplemented"


def main() -> int:
    sources = [Path(module.__file__).resolve() for module in MODULES]
    hit = traced_lines({str(source) for source in sources})
    unrun, allowed_seen, counted = [], set(), {}
    for source in sources:
        text = source.read_text()
        lines = text.splitlines()
        found = list(statements(ast.parse(text)))
        counted[source.name] = len(found)
        for function, stmt, span in found:
            if any((str(source), line) in hit for line in span) or _exempt(function, stmt):
                continue
            key = (source.name, function, lines[stmt.lineno - 1].strip())
            if key in ALLOWED:
                allowed_seen.add(key)
                continue
            unrun.append(f"{source.name}:{stmt.lineno}: {function}: {key[2]}")
    for key in ALLOWED.keys() - allowed_seen:
        # an entry that no longer matches an unrun statement is stale
        unrun.append(f"ALLOWED entry {key} matches no unrun statement")
    for line in unrun:
        print(line)
    sizes = ", ".join(f"{name} {count}" for name, count in counted.items())
    print(f"{sum(counted.values())} statements ({sizes}): "
          f"{len(unrun)} unrun statements or stale allowlist entries")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
