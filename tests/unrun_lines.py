"""Fail when a statement of hookshift.polynomials goes unrun.

The polynomial module keeps only what the library runs.  This script
traces it, in one process, under every CLI command, a hook-faulted and a
g-factor-faulted witness sweep in each output format, and the README's
python blocks.  It then lists each statement inside a function that no
line event reached, and exits 1 if any is left.  Exempt are a ``raise``
or a ``return NotImplemented`` (both end in an error), the body of a
``__repr__``, and the entries of ALLOWED, each with its reason.

Run it from the repository root:

    PYTHONPATH=src python tests/unrun_lines.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import sys
from pathlib import Path

import hookshift.polynomials
from hookshift import Fault, IdentityId, Partition, SweepConfig, render_report, run_sweep
from hookshift import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(hookshift.polynomials.__file__).resolve()

# (function, statement as written): why nothing here runs it
ALLOWED = {
    ("ExactPolynomial.__init__", "cs.pop()"):
        "the library passes the constructor no trailing zeros; it trims for other callers",
    ("ExactPolynomial.__str__", 'return "0"'):
        "no command prints a zero polynomial",
    ("ExactPolynomial.__str__", 'coeff = f"({mag})"'):
        "the commands print only polynomials with integer coefficients",
    ("times_linear_factors", "return p"):
        "the library multiplies only nonzero polynomials by linear factors",
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
    ]
    commands += [["check", i.value, PARTITION] for i in IdentityId]
    commands += [["sweep", "--max-n", "7", "--max-n-schur", "4", "--jobs", "1",
                  "--witnesses", "--format", fmt] for fmt in ("json", "csv", "text")]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            cli.main(argv)
    for fault in FAULTS:
        for fmt in ("json", "csv", "text"):
            config = SweepConfig(max_n_identities=7, max_n_theorem_1_2=4, max_n_oracles=4,
                                 parallelism=1, output_format=fmt, capture_witnesses=True,
                                 fault=fault)
            render_report(run_sweep(config))
    namespace: dict = {}
    for block in re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        exec(compile(block, "README.md", "exec"), namespace)


def traced_lines() -> set[int]:
    """The lines of the polynomial module that ran under the workload."""
    hit: set[int] = set()
    path = str(SOURCE)

    def local(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename == path else None

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
    hit = traced_lines()
    text = SOURCE.read_text()
    lines = text.splitlines()
    unrun, allowed_seen = [], set()
    for function, stmt, span in statements(ast.parse(text)):
        if hit.intersection(span) or _exempt(function, stmt):
            continue
        key = (function, lines[stmt.lineno - 1].strip())
        if key in ALLOWED:
            allowed_seen.add(key)
            continue
        unrun.append(f"{SOURCE.name}:{stmt.lineno}: {function}: {key[1]}")
    for key in ALLOWED.keys() - allowed_seen:
        # an entry that no longer matches an unrun statement is stale
        unrun.append(f"ALLOWED entry {key} matches no unrun statement")
    for line in unrun:
        print(line)
    print(f"{SOURCE.name}: {len(unrun)} unrun statements or stale allowlist entries")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
