"""The package's public names, and the README's library examples run
against them."""

import ast
import re
import types
from pathlib import Path

import hookshift

README = Path(__file__).resolve().parent.parent / "README.md"

# what the README's library section, the CLI and the benchmark use
PUBLIC = {
    "Fault",
    "IdentityId",
    "Partition",
    "PartitionError",
    "SweepConfig",
    "check_identity",
    "corner_sets",
    "enumerate_partitions",
    "g_poly",
    "hook_length",
    "hook_lengths",
    "hook_product",
    "parse_partition",
    "render_report",
    "run_sweep",
    "schur_lhs",
    "schur_rhs",
    "syt_count",
}


def test_public_names_are_pinned():
    names = {
        name
        for name, value in vars(hookshift).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC


def _stated_value(comment):
    """The literal a comment such as "# True: ..." or "# 8" states, else None."""
    try:
        return (ast.literal_eval(comment.split(":")[0].strip()),)
    except (ValueError, SyntaxError):
        return None


def test_readme_python_blocks():
    # run the blocks in order in one namespace; every expression whose
    # comment states a value must evaluate to it
    namespace, stated = {}, []
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            want = _stated_value(lines[stmt.end_lineno - 1].partition("#")[2])
            if want is not None:
                assert value == want[0], ast.unparse(stmt)
                stated.append(want[0])
    assert stated == [297, 8, "17x^2-38x-75", True, False]
