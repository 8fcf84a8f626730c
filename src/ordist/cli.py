"""Command-line front end.

Subcommands:

  check SYSTEM        validation, marginal selectivity, chain-test suite
  jdc SYSTEM          joint-distribution feasibility (LP), plus the
                      Bell-CHSH-Fine block for 2x2 binary systems
  demo-normal         closed-form bivariate-normal chain violation

Exit codes are never conflated: 0 = the method found nothing against the
system, 1 = usage or input error, 2 = negative verdict (violations found
or LP infeasible).  All human-readable output is derived from the same
JSON report that --json prints verbatim.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .arith import EPS_LP, EPS_SUM, EPS_TEST, num_to_json
from .errors import HiddenSpaceTooLarge, NumericalInstability, OrdistError
from .fileio import default_order_metric, dumps_report, load_metric, load_system
from .jdc import (
    FineSystem,
    build_jdc,
    fine_chain_equivalence,
    fine_inequalities,
    is_2x2_binary,
    jdc_feasible,
)
from .binormal import demo_chain_violation, rho_grid
from .selectivity import check_marginal_selectivity, run_suite
from .probspace import validate_system

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERDICT = 2


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _sequence_length(text: str) -> int:
    value = int(text)
    if value < 3:
        raise argparse.ArgumentTypeError("must be at least 3")
    return value


def _count_bound(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of a process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ordist",
        description="Distance and joint-distribution tests of selective influence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("system", help="JSON system file")
        p.add_argument(
            "--arithmetic",
            choices=["auto", "rational", "float"],
            default="auto",
            help="number handling; auto keeps exact rationals when the file permits",
        )
        p.add_argument("--json", action="store_true", help="print the JSON report")
        p.add_argument(
            "--tol-test",
            type=_positive_float,
            default=EPS_TEST,
            metavar="X",
            help="violation tolerance for float systems",
        )
        p.add_argument(
            "--tol-sum",
            type=_positive_float,
            default=EPS_SUM,
            metavar="X",
            help="table normalization tolerance for float systems",
        )

    p_check = sub.add_parser("check", help="chain-inequality test suite")
    common(p_check)
    p_check.add_argument(
        "--metric",
        action="append",
        default=[],
        metavar="FILE|JSON",
        help="metric configuration (repeatable); default: canonical order-distance",
    )
    p_check.add_argument(
        "--max-len", type=_sequence_length, default=6, help="sequence length cap"
    )
    p_check.add_argument(
        "--cap", type=_count_bound, default=1_000_000, help="irreducible-sequence bound"
    )

    p_jdc = sub.add_parser("jdc", help="joint-distribution feasibility")
    common(p_jdc)
    p_jdc.add_argument(
        "--cap", type=_count_bound, default=1_000_000, help="hidden-space size cap"
    )
    p_jdc.add_argument(
        "--tol-lp",
        type=_positive_float,
        default=EPS_LP,
        metavar="X",
        help="feasibility slack for float-mode LP solves",
    )

    p_demo = sub.add_parser("demo-normal", help="bivariate-normal counterexample")
    p_demo.add_argument("--json", action="store_true", help="print the JSON report")
    p_demo.add_argument(
        "--rho-grid",
        action="store_true",
        help="print arccos(rho)/(2 pi) on a grid of correlations",
    )
    return parser


def _load_checked(args):
    loaded = load_system(args.system, args.arithmetic)
    report = validate_system(loaded.design, loaded.tables, eps_sum=args.tol_sum)
    return loaded, report


def cmd_check(args) -> int:
    try:
        loaded, validation = _load_checked(args)
    except (OrdistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {"validation": validation.as_json(), "arithmetic": loaded.regime}
    if not validation.ok:
        print(dumps_report(report), end="")
        print("invalid system; see issues above", file=sys.stderr)
        return EXIT_INPUT
    msel = check_marginal_selectivity(loaded.design, loaded.tables, args.tol_test)
    report["marginal_selectivity"] = msel.as_json()
    if not msel.passed:
        report["violations"] = []
        report["sequences_tested"] = 0
        _emit(report, args)
        if not args.json:
            print("marginal selectivity violated; no joint distribution exists")
        return EXIT_VERDICT
    try:
        if args.metric:
            metrics = [load_metric(m) for m in args.metric]
        else:
            metrics = [default_order_metric(loaded.design, loaded.tables)]
        suite = run_suite(
            loaded.design,
            loaded.tables,
            metrics,
            max_len=args.max_len,
            cap=args.cap,
            eps_test=args.tol_test,
            on_cap="truncate",
        )
    except (OrdistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sj = suite.as_json()
    report.update(
        violations=sj["violations"],
        sequences_tested=sj["sequences_tested"],
        metrics=sj["metrics"],
        truncated=sj["truncated"],
    )
    _emit(report, args)
    if not args.json:
        note = " (enumeration truncated)" if suite.truncated else ""
        print(
            f"{suite.sequences_tested} irreducible sequences x {len(metrics)} metrics: "
            f"{len(suite.violations)} violation(s){note}"
        )
        for v in suite.violations[:10]:
            seq = " -> ".join(f"({p.input},{p.value})" for p in v.sequence)
            print(f"  {v.metric}: {seq}  residual {num_to_json(v.residual)}")
    return EXIT_VERDICT if suite.violations else EXIT_OK


def cmd_jdc(args) -> int:
    try:
        loaded, validation = _load_checked(args)
    except (OrdistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {"validation": validation.as_json(), "arithmetic": loaded.regime}
    if not validation.ok:
        print(dumps_report(report), end="")
        print("invalid system; see issues above", file=sys.stderr)
        return EXIT_INPUT
    try:
        problem = build_jdc(loaded.design, loaded.tables, cap=args.cap)
        verdict = jdc_feasible(problem, eps_lp=args.tol_lp)
    except (HiddenSpaceTooLarge, NumericalInstability) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report.update(verdict.as_json())
    report["variables"] = problem.n_vars
    report["constraints"] = len(problem.constraints)
    report["fine"] = None
    report["theorem4_max_discrepancy"] = None
    if is_2x2_binary(loaded.design, loaded.tables):
        try:
            fs = FineSystem.from_tables(loaded.design, loaded.tables, args.tol_test)
            report["fine"] = fine_inequalities(
                fs, 0.0 if loaded.regime == "rational" else args.tol_test
            ).as_json()
            eq = fine_chain_equivalence(fs, loaded.design, loaded.tables)
            report["theorem4_max_discrepancy"] = num_to_json(eq.max_discrepancy)
        except OrdistError as exc:
            report["fine"] = {"error": str(exc)}
    _emit(report, args)
    if not args.json:
        state = "feasible" if verdict.feasible else "infeasible"
        print(
            f"joint distribution over {problem.n_vars} assignments: {state} "
            f"({len(problem.constraints)} constraints, {loaded.regime} arithmetic)"
        )
        fine = report["fine"]
        if isinstance(fine, dict) and fine.get("violations"):
            print(f"Bell-CHSH-Fine inequalities violated: {fine['violations']}")
    return EXIT_OK if verdict.feasible else EXIT_VERDICT


def cmd_demo_normal(args) -> int:
    report = demo_chain_violation()
    doc = report.as_json()
    doc["rhs_total"] = num_to_json(sum(report.rhs_terms))
    if args.rho_grid:
        doc["rho_grid"] = [[rho, d] for rho, d in rho_grid()]
    if args.json:
        print(dumps_report(doc), end="")
    else:
        seq = " -> ".join(f"({p.input},{p.value:g})" for p in report.sequence)
        print(f"sequence: {seq}")
        print(
            f"lhs {report.lhs:.6g} <= rhs {sum(report.rhs_terms):.6g} is false; "
            f"residual {report.residual:.6g}"
        )
        print("selective influence of the two inputs is ruled out.")
        if args.rho_grid:
            print("rho        arccos(rho)/(2 pi)")
            for rho, d in rho_grid():
                print(f"{rho:+.2f}      {d:.6f}")
    return EXIT_VERDICT if report.violated else EXIT_OK


def _emit(report: dict, args) -> None:
    if args.json:
        print(dumps_report(report), end="")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for verdicts here
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    if args.command == "check":
        return cmd_check(args)
    if args.command == "jdc":
        return cmd_jdc(args)
    if args.command == "demo-normal":
        return cmd_demo_normal(args)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
