"""Command-line front end.

    affext plan     derive parameters and write a spec file
    affext extract  apply a spec to vectors from a file or stdin
    affext verify   sweep affine subspaces and run the bound checks
    affext bounds   run the Deligne battery and prime-average statistics

Exit codes: 0 success, 1 argument or input error, 2 planning constraint
violated in strict mode, 3 a theorem-backed check failed during verify.
All commands are deterministic given their arguments and seeds.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
import warnings
from dataclasses import replace

from . import analysis, extractor, numtheory, subspace
from .config import (
    DEFAULT_POINT_BUDGET,
    DEFAULT_SUBSPACE_BUDGET,
    DEFAULT_TOLERANCE,
    Budgets,
    BudgetExceededError,
    check_budget,
    parse_ints,
)

EXIT_OK = 0
EXIT_ARGS = 1
EXIT_PLAN = 2
EXIT_CHECK = 3

_EXTRACT_CHUNK = 65_536  # input lines per evaluate_batch call


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="affext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="derive parameters and write a spec file")
    p.add_argument("--q", type=int, required=True, help="prime modulus")
    p.add_argument("--n", type=int, required=True, help="input length")
    p.add_argument("--k", type=int, required=True, help="subspace dimension")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=float, help="output rate, m = floor(beta*k)")
    group.add_argument("--m", type=int, help="output length, set directly")
    p.add_argument("--strict-lcm", action="store_true",
                   help="fail when lcm(d) exceeds q**epsilon instead of warning")
    p.add_argument("--seed-points", type=str, default=None,
                   help="comma-separated Vandermonde seed points (default 1..n)")
    p.add_argument("--spec-file", type=str, required=True, help="output path")

    p = sub.add_parser("extract", help="apply a spec to input vectors")
    p.add_argument("--spec-file", type=str, required=True)
    p.add_argument("--input", dest="input_file", type=str, default="-",
                   help="comma-separated residue vectors, one per line ('-' = stdin)")
    p.add_argument("--output", dest="output_file", type=str, default="-")

    p = sub.add_parser("verify", help="sweep subspaces and run checks")
    p.add_argument("--spec-file", type=str, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", action="store_true",
                       help="every k-dimensional affine subspace")
    group.add_argument("--sample", type=int, default=None,
                       help="number of seeded random subspaces")
    group.add_argument("--subspace-file", type=str, default=None,
                       help="explicit subspaces (n,k,q header, offset, k basis lines)")
    p.add_argument("--checks", type=str, default=",".join(analysis.DEFAULT_CHECKS),
                   help=f"comma list from {','.join(analysis.CHECK_ORDER)}, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--report-dir", type=str, default=None,
                   help="write verify_report.csv and verify_summary.txt here")
    p.add_argument("--report-rows", type=str, default="auto",
                   choices=("auto", "full", "violations", "none"))
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--points-budget", type=int, default=DEFAULT_POINT_BUDGET)
    p.add_argument("--subspace-budget", type=int, default=DEFAULT_SUBSPACE_BUDGET)

    p = sub.add_parser("bounds", help="Deligne battery and prime statistics")
    p.add_argument("--prachar-limit", dest="prachar_limits", type=int,
                   action="append", default=None,
                   help="omega(q-1) statistics over primes q <= limit (repeatable, default 1000)")
    p.add_argument("--report-dir", type=str, default=None)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--points-budget", type=int, default=DEFAULT_POINT_BUDGET)
    return parser


def _open_out(path: str):
    return sys.stdout if path == "-" else open(path, "w", encoding="ascii")


def cmd_plan(args: argparse.Namespace) -> int:
    seed_points = None
    if args.seed_points is not None:
        seed_points = parse_ints(args.seed_points, "--seed-points")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.beta is not None:
            spec = extractor.plan_parameters(
                n=args.n, k=args.k, beta=args.beta, q=args.q,
                seed_points=seed_points, strict_lcm=args.strict_lcm,
            )
        else:
            spec = extractor.build_spec(
                q=args.q, n=args.n, k=args.k, m=args.m, seed_points=seed_points,
            )
            if args.strict_lcm:
                extractor.check_lcm_bound(spec, strict=True)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    extractor.save_spec(spec, args.spec_file)
    print(f"spec written to {args.spec_file}")
    print(f"q = {spec.modulus}, n = {spec.n}, k = {spec.k}, m = {spec.m}")
    print(f"d = {','.join(str(v) for v in spec.d)}")
    print(f"lcm = {spec.d.lcm}, q**epsilon = {spec.modulus**spec.epsilon:.6g}, "
          f"lcm_bound_satisfied = {str(spec.lcm_bound_satisfied).lower()}")
    return EXIT_OK


def _parse_rows(lines: list[str], first: int, n: int, q: int) -> list[tuple[int, ...]]:
    """The vectors of input lines first, first + 1, ...; blank and # lines are skipped."""
    rows = []
    for lineno, raw in enumerate(lines, start=first):
        line = raw.strip()
        if line and not line.startswith("#"):
            rows.append(parse_ints(line, f"input line {lineno}", n, q))
    return rows


def cmd_extract(args: argparse.Namespace) -> int:
    """Evaluate the input _EXTRACT_CHUNK lines at a time, one evaluate_batch
    per chunk.  A bad line stops the run with its line number; the output of
    the chunks before it has been written by then.  Before the first batch,
    the kernel that runs it is named once on stderr."""
    from . import batch  # imported here, as evaluate_batch does, so other commands skip it

    spec = extractor.load_spec(args.spec_file)
    # stdin is read as a file is: ASCII, any other byte kept for parse_ints to refuse by line
    fh_in = open(sys.stdin.fileno() if args.input_file == "-" else args.input_file,
                 encoding="ascii", errors="surrogateescape", closefd=args.input_file != "-")
    fh_out = None
    try:
        lineno, routed = 1, False
        while True:
            chunk = list(itertools.islice(fh_in, _EXTRACT_CHUNK))
            # split as str.splitlines would split the whole input, so line numbers match it
            lines = [piece for raw in chunk for piece in raw.splitlines()]
            rows = _parse_rows(lines, lineno, spec.n, spec.modulus)
            lineno += len(lines)
            if fh_out is None:
                fh_out = _open_out(args.output_file)
            if rows:
                if not routed:  # stderr, so the output stays byte-identical
                    print(f"batch_route = {batch.batch_route(spec.modulus)}", file=sys.stderr)
                    routed = True
                outputs = extractor.evaluate_batch(spec, rows).tolist()
                fh_out.write("".join(",".join(map(str, z)) + "\n" for z in outputs))
            if len(chunk) < _EXTRACT_CHUNK:
                return EXIT_OK
    finally:
        fh_in.close()  # not stdin's file descriptor
        if fh_out is not None and fh_out is not sys.stdout:
            fh_out.close()


def cmd_verify(args: argparse.Namespace) -> int:
    spec = extractor.load_spec(args.spec_file)
    if args.exhaustive:
        source = analysis.ExhaustiveSubspaces()
    elif args.sample is not None:
        source = analysis.SampledSubspaces(count=args.sample, seed=args.seed)
    else:
        source = analysis.ExplicitSubspaces(
            subspaces=tuple(subspace.load_subspaces(args.subspace_file))
        )
    names = (analysis.CHECK_ORDER if args.checks.strip() == "all"
             else [name.strip() for name in args.checks.split(",") if name.strip()])
    start = time.perf_counter()
    result = analysis.verify_extractor(
        spec,
        source,
        checks=names,
        workers=args.workers,
        budgets=Budgets(points=args.points_budget, subspaces=args.subspace_budget),
        tolerance=args.tolerance,
        collect=args.report_rows,
        log=lambda line: print(line, file=sys.stderr),
    )
    elapsed = time.perf_counter() - start
    # analyze_block calls, and the chunks they ran in; stderr, like the lines below
    print(f"sweep_runs = {result.runs} in {result.chunks} chunks", file=sys.stderr)
    if result.points_covered or args.report_dir is not None:
        from . import batch  # for the route lines; a run that uses no C function skips it
    # how the counts were built; stderr, so stdout and the reports stay byte-identical
    route = batch.count_route() if result.points_covered else "none (no check counted points)"
    print(f"count_route = {route}", file=sys.stderr)
    if args.report_dir is not None:  # how the report rows are written
        print(f"report_route = {batch.report_route()}", file=sys.stderr)
    # points the count kernel visited, of those its counts covered (+- pairs are counted once)
    print(f"count_points = {result.points_visited} of {result.points_covered}", file=sys.stderr)
    for line in analysis.summary_lines(result):
        print(line)
    print(f"elapsed_seconds = {elapsed:.3f}")
    if args.report_dir is not None:
        os.makedirs(args.report_dir, exist_ok=True)
        report = os.path.join(args.report_dir, "verify_report.csv")
        summary = os.path.join(args.report_dir, "verify_summary.txt")
        analysis.write_reports_csv(result, report)
        analysis.write_summary(result, summary)
        print(f"report rows written to {report}")
        print(f"summary written to {summary}")
    return EXIT_OK if result.ok else EXIT_CHECK


def cmd_bounds(args: argparse.Namespace) -> int:
    limits = args.prachar_limits or (1000,)
    top = max(limits)  # prachar_average(top) sieves top + 1 integers, checked before any work
    check_budget(top, args.points_budget, f"prime statistics up to {top} sieve {top} integers")
    battery = analysis.deligne_battery()
    result = analysis.SweepResult(
        spec_q=0, spec_n=0, spec_k=0, spec_m=0,
        source=f"deligne_battery:{len(battery)}",
        checks=("deligne",), collect="full", tolerance=args.tolerance,
        total_subspaces=len(battery),
    )
    failed = 0
    for idx, (f, b) in enumerate(battery):
        report = analysis.deligne_bound_check(
            f, b, budget=args.points_budget, tolerance=args.tolerance
        )
        report = replace(report, subspace_id=idx)
        result.reports.append(report)
        result.processed += 1
        if report.satisfied is False:
            failed += 1
        print(
            f"deligne[{idx}] {report.detail} b={b}: |S| = {report.quantity:.6f} "
            f"<= {report.bound:.6f} {'ok' if report.satisfied else 'FAIL'}"
        )
    result.violations["deligne"] = failed
    for limit in limits:
        total, norm, atypical = numtheory.prachar_average(limit)
        print(f"prachar_sum[{limit}] = {total}")
        print(f"prachar_normalized[{limit}] = {norm!r}")
        print(f"prachar_atypical[{limit}] = {atypical}")
    if args.report_dir is not None:
        os.makedirs(args.report_dir, exist_ok=True)
        path = os.path.join(args.report_dir, "deligne_battery.csv")
        from . import batch  # imported here, as the report writer does, so other commands skip it

        print(f"report_route = {batch.report_route()}", file=sys.stderr)
        analysis.write_reports_csv(result, path)
        print(f"battery rows written to {path}")
    return EXIT_OK if failed == 0 else EXIT_CHECK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ARGS if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "plan":
            return cmd_plan(args)
        if args.command == "extract":
            return cmd_extract(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "bounds":
            return cmd_bounds(args)
        raise ValueError(f"unknown command {args.command}")
    except extractor.LcmBoundViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLAN
    except (ValueError, TypeError, OSError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS


if __name__ == "__main__":
    sys.exit(main())
