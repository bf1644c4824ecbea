"""Command-line interface.

Exit codes: 0 success / all checks passed, 1 at least one verification
failure, 2 usage or parse error or an output that cannot be written
(--output, or stdout once its reader has gone), 3 a sweep aborted by an
exception raised inside a work unit.  Computation subcommands print
nothing machine-dependent, so their output is a pure function of argv.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from .harness import SweepConfig, render_report, run_sweep
from .identities import IdentityId, check_identity, g_poly
from .partitions import (
    corner_sets,
    hook_length,
    hook_lengths,
    hook_product,
    parse_partition,
    syt_count,
)
from .polynomials import ExactPolynomial
from .schur import schur_lhs, schur_rhs, serialize_side, uncleared


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hookshift",
        description="Exact hook-length and shifted-parts computations, and "
        "exhaustive verification of the identities relating them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hooks", help="hook-length grid and hook product")
    p.add_argument("partition")
    p.set_defaults(run=_cmd_hooks)

    p = sub.add_parser("gpoly", help="the shifted-parts g-polynomial")
    p.add_argument("partition")
    p.set_defaults(run=_print_of_partition, of=g_poly)

    p = sub.add_parser("corners", help="in/out corner rows and removals")
    p.add_argument("partition")
    p.set_defaults(run=_cmd_corners)

    p = sub.add_parser("syt", help="number of standard Young tableaux")
    p.add_argument("partition")
    p.set_defaults(run=_print_of_partition, of=syt_count)

    p = sub.add_parser("schur-lhs", help="binomial/elementary side of the Schur identity")
    p.add_argument("n", type=int)
    p.set_defaults(run=_cmd_schur_side, side=schur_lhs)

    p = sub.add_parser("schur-rhs", help="hook/g side of the Schur identity")
    p.add_argument("n", type=int)
    p.set_defaults(run=_cmd_schur_side, side=schur_rhs)

    p = sub.add_parser("check", help="check one identity at one partition")
    p.add_argument("identity", metavar="identity-id")
    p.add_argument("partition")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("sweep", help="verify the catalog over all partitions up to a bound")
    p.add_argument("--max-n", type=int, default=25, help="identity sweep bound (default 25)")
    p.add_argument("--max-n-schur", type=int, default=9,
                   help="bound for the Schur-identity checks (default 9)")
    p.add_argument("--max-n-oracle", type=int, default=8,
                   help="bound for the oracle, a spot check of the Schur identity "
                   "at one point, capped by --max-n-schur (default 8)")
    p.add_argument("--identities", default="all",
                   help="comma-separated identity ids (default all)")
    p.add_argument("--jobs", default="auto", help="worker count or 'auto'")
    p.add_argument("--format", default="json", choices=("json", "csv", "text"))
    p.add_argument("--fail-fast", action="store_true")
    p.add_argument("--witnesses", action="store_true",
                   help="record witnesses for passing checks too")
    p.add_argument("--output", default=None, help="write the report here instead of stdout")
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("example-55331", help="worked example for the partition 5,5,3,3,1")
    p.set_defaults(run=_cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # so that a failing write shows here, not at exit
        return code
    except ValueError as exc:
        message = str(exc)
    except OSError as exc:
        if getattr(args, "output", None):
            message = f"cannot write --output {args.output}: {exc.strerror}"
        else:
            # stdout takes no more: point it at os.devnull, so that the
            # flush at exit does not raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            message = f"cannot write to stdout: {exc.strerror}"
    with contextlib.suppress(OSError):
        print(f"error: {message}", file=sys.stderr)
    return 2


def _print_hooks(lam, indent="", name="H") -> None:
    for row in hook_lengths(lam):
        print(indent + " ".join(map(str, row)))
    print(f"{indent}{name} = {hook_product(lam)}")


def _cmd_hooks(args) -> int:
    _print_hooks(parse_partition(args.partition))
    return 0


def _fmt_rows(rows) -> str:
    return "{" + ",".join(str(i) for i in rows) + "}"


def _print_of_partition(args) -> int:
    print(args.of(parse_partition(args.partition)))
    return 0


def _cmd_schur_side(args) -> int:
    # the side as the paper states it, not cleared by n!
    print(json.dumps(serialize_side(uncleared(args.side(args.n), args.n)), indent=2))
    return 0


def _cmd_corners(args) -> int:
    data = corner_sets(parse_partition(args.partition))
    print(f"T={_fmt_rows(data.in_corners)}")
    print(f"B={_fmt_rows(data.out_corners)}")
    for i in data.in_corners:
        print(f"row {i} removed -> {data.removals[i]}")
    return 0


def _cmd_check(args) -> int:
    try:
        identity = IdentityId(args.identity)
    except ValueError:
        raise ValueError(f"unknown identity id {args.identity!r}; one of "
                         + ", ".join(i.value for i in IdentityId)) from None
    outcomes = check_identity(identity, parse_partition(args.partition))
    for o in outcomes:
        corner = f" corner={o.corner_index}" if o.corner_index is not None else ""
        print(f"{o.status.upper()} {o.identity} {o.partition}{corner} "
              f"lhs={o.lhs} rhs={o.rhs}")
    return 0 if all(o.passed for o in outcomes) else 1


def _parse_identity_selection(text: str):
    if text == "all":
        return tuple(IdentityId)
    try:
        return tuple(IdentityId(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise ValueError(f"bad --identities value: {exc}") from None


def _cmd_sweep(args) -> int:
    jobs = args.jobs
    if jobs != "auto" and not (jobs.isdigit() and int(jobs) > 0):
        raise ValueError(f"bad --jobs value {jobs!r}: expected 'auto' or a positive integer")
    for option, value in (("--max-n", args.max_n), ("--max-n-schur", args.max_n_schur),
                          ("--max-n-oracle", args.max_n_oracle)):  # before the clamp
        if value < 1:
            raise ValueError(f"bad {option} value {value}: expected a positive integer")
    config = SweepConfig(
        max_n_identities=args.max_n,
        max_n_theorem_1_2=args.max_n_schur,
        max_n_oracles=min(args.max_n_oracle, args.max_n_schur),
        identities=_parse_identity_selection(args.identities),
        parallelism=jobs if jobs == "auto" else int(jobs),
        output_format=args.format,
        fail_fast=args.fail_fast,
        capture_witnesses=args.witnesses,
    )
    # open the output first, so a bad path fails at once; only a report
    # replaces an existing file, and only a whole one keeps a new file
    created = args.output and not os.path.exists(args.output)
    sink = open(args.output, "a") if args.output else None
    code = 3
    try:
        with sink or contextlib.nullcontext():
            try:
                report = run_sweep(config)
            except Exception as exc:
                print(f"error: sweep aborted: {type(exc).__name__}: {exc}", file=sys.stderr)
                return 3
            text = render_report(report)
            if sink:
                sink.truncate(0)
                sink.write(text)
            else:
                print(text, end="" if text.endswith("\n") else "\n")
        code = 0 if report.all_passed else 1
    finally:
        # an abort, or a failed write or close: report that, not the removal
        if created and code == 3:
            with contextlib.suppress(OSError):
                os.remove(args.output)
    return code


def _product_str(factors) -> str:
    return "".join(f"({f})" for f in factors)


def _linear_product_str(constants) -> str:
    """The product of the linear factors (x + c), one per constant."""
    return _product_str(ExactPolynomial((c, 1)) for c in constants)


def _cmd_example(args) -> int:
    lam = parse_partition("55331")
    n = lam.size
    corner_row = 4
    data = corner_sets(lam)
    mu = data.removals[corner_row]

    print(f"partition 5,5,3,3,1 of n = {n}")
    print()
    print("hook lengths:")
    _print_hooks(lam, "  ")
    print()
    print(f"after removing the corner box in row {corner_row} ({mu}):")
    _print_hooks(mu, "  ", "H'")
    print()

    changed = [c for c in lam.cells()
               if not mu.contains_cell(c) or hook_length(lam, c) != hook_length(mu, c)]
    num_hooks = [hook_length(lam, c) for c in changed]
    den_hooks = [hook_length(mu, c) for c in changed if mu.contains_cell(c)]
    ratio = Fraction(hook_product(lam), hook_product(mu))
    print("only the hooks in the removed box's row and column change, so")
    print(f"  H/H' = {_product_str(num_hooks)} / {_product_str(den_hooks)} = {ratio}")
    print()

    # lam has fewer than n - 1 rows, so after cancellation g(x+1) keeps the
    # factor of every out-corner row of lam, and g'(x) that of every
    # in-corner row, read in mu
    num = [lam.part(j) - j + 1 for j in data.out_corners]
    den = [mu.part(j) - j for j in data.in_corners]
    num_str = _linear_product_str(num)
    print(f"cancelled quotient g(x+1)/g'(x) for the row-{corner_row} removal:")
    print(f"  {num_str} / {_linear_product_str(den)}")
    a = corner_row - lam.part(corner_row)
    print(f"at x = {corner_row} - {lam.part(corner_row)} = {a} this is "
          f"{_product_str(c + a for c in num)} / {_product_str(c + a for c in den)} = "
          f"{Fraction(g_poly(lam)(a + 1), g_poly(mu)(a))} = H/H'")
    print()

    print(f"corner index sets: T={_fmt_rows(data.in_corners)} and B={_fmt_rows(data.out_corners)}")
    for i in data.in_corners:
        print(f"  row {i} removed -> {data.removals[i]}")
    qden = _linear_product_str(lam.part(i) - i for i in data.in_corners)
    (thm_4_2,) = check_identity(IdentityId.THM_4_2, lam)
    print(f"so (x-{n}) g(x+1)/g(x) = {num_str} / {qden}")
    print("and the weighted corner sum identity reads")
    print("  sum over rows i in T of (H/H_i-) / (x+part(i)-i)")
    print(f"    = x - {num_str} / {qden}")
    print(f"    = ({thm_4_2.rhs}) / {qden}")
    print()

    total = sum(Fraction(hook_product(lam), hook_product(m)) for m in data.removals.values())
    print(f"sum of H/H_mu over all corner removals = {total} = n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
