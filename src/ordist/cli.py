"""Command-line front end.

Subcommands:

  check SYSTEM        validation, marginal selectivity, chain-test suite
  jdc SYSTEM          joint-distribution feasibility (LP), plus the
                      Bell-CHSH-Fine block for 2x2 binary systems
  demo-normal         closed-form bivariate-normal chain violation

Exit codes are never conflated: 0 = the method found nothing against the
system, 1 = usage or input error, 2 = negative verdict (violations found
or LP infeasible).  :func:`main` is the one error boundary: an OrdistError
or OSError from any step prints ``error: ...`` and exits 1.  Text output
is derived from the same report dict that --json prints verbatim.
:func:`main` runs each command with the cyclic garbage collector paused:
a command's objects form no reference cycles, so reference counting frees
all of them and a collection during the command would free nothing.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from .arith import EPS_LP, EPS_SUM, EPS_TEST, num_to_json
from .errors import OrdistError
from .fileio import dumps_report, load_metric, load_system
from .jdc import (
    MAX_HIDDEN_SPACE,
    FineSystem,
    build_jdc,
    fine_chain_equivalence,
    fine_inequalities,
    is_2x2_binary,
    jdc_feasible,
)
from .binormal import demo_chain_violation, rho_grid
from .metrics import default_order_metric
from .selectivity import MAX_SEQUENCES, check_marginal_selectivity, default_max_len, run_suite
from .probspace import validate_system

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERDICT = 2


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError("must be positive and finite")
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
            help="which literals read as floats (auto: decimals of over 9 places), held exactly; "
            "a system with one uses the --tol-* tolerances and prints floats",
        )
        p.add_argument("--json", action="store_true", help="print the JSON report")
        p.add_argument(
            "--tol-test",
            type=_positive_float,
            default=EPS_TEST,
            metavar="X",
            help="violation tolerance for float systems, compared exactly",
        )
        p.add_argument(
            "--tol-sum",
            type=_positive_float,
            default=EPS_SUM,
            metavar="X",
            help="table normalization tolerance for float systems, compared exactly",
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
        "--max-len",
        type=_sequence_length,
        help="sequence length cap; default: the number of input points on a "
        "restricted design, so that every chordless cycle is tested, and 4 on a "
        "full one, whose irreducible sequences are tetrads",
    )
    p_check.add_argument(
        "--cap", type=_count_bound, default=MAX_SEQUENCES, help="irreducible-sequence bound"
    )

    p_jdc = sub.add_parser("jdc", help="joint-distribution feasibility")
    common(p_jdc)
    p_jdc.add_argument(
        "--cap", type=_count_bound, default=MAX_HIDDEN_SPACE, help="hidden-space size cap"
    )
    p_jdc.add_argument(
        "--tol-lp",
        type=_positive_float,
        default=EPS_LP,
        metavar="X",
        help="largest phase-1 objective at which a float system, read as the "
        "binary fractions its floats equal, is feasible; also the chain screen's "
        "float tolerance; compared exactly",
    )

    p_demo = sub.add_parser("demo-normal", help="bivariate-normal counterexample")
    p_demo.add_argument("--json", action="store_true", help="print the JSON report")
    p_demo.add_argument(
        "--rho-grid",
        action="store_true",
        help="print arccos(rho)/(2 pi) on a grid of correlations",
    )
    return parser


def _load_valid(args):
    """Load and validate the system: returns it with its per-point axes and
    the report's first two fields, or prints the invalid system's report
    and returns None."""
    loaded = load_system(args.system, args.arithmetic)
    validation = validate_system(loaded.design, loaded.tables, eps_sum=args.tol_sum)
    report = {"validation": validation.as_json(), "arithmetic": loaded.regime}
    if not validation.ok:
        print(dumps_report(report), end="")
        print("invalid system; see issues above", file=sys.stderr)
        return None
    return loaded, validation.axes, report


def cmd_check(args) -> int:
    checked = _load_valid(args)
    if checked is None:
        return EXIT_INPUT
    loaded, axes, report = checked
    msel = check_marginal_selectivity(loaded.design, loaded.tables, args.tol_test)
    report["marginal_selectivity"] = msel.as_json()
    if msel.passed:
        if args.metric:
            metrics = [load_metric(m) for m in args.metric]
        else:
            metrics = [default_order_metric(axes)]
        max_len = default_max_len(loaded.design) if args.max_len is None else args.max_len
        suite = run_suite(
            loaded.design,
            loaded.tables,
            metrics,
            max_len=max_len,
            cap=args.cap,
            eps_test=args.tol_test,
        )
        report.update(suite.as_json())
    else:
        report.update(violations=[], sequences_tested=0)
    _emit(report, args, _check_text)
    return EXIT_VERDICT if report["violations"] or not msel.passed else EXIT_OK


def _check_text(report: dict):
    if not report["marginal_selectivity"]["passed"]:
        yield "marginal selectivity violated; no joint distribution exists"
        return
    note = " (enumeration truncated)" if report["truncated"] else ""
    yield (
        f"{report['sequences_tested']} irreducible sequences x {len(report['metrics'])} "
        f"metrics: {len(report['violations'])} violation(s){note}"
    )
    for v in report["violations"][:10]:
        yield f"  {v['metric']}: {_sequence_text(v)}  residual {v['residual']}"


def _sequence_text(chain: dict) -> str:
    return " -> ".join(f"({name},{value})" for name, value in chain["sequence"])


def cmd_jdc(args) -> int:
    checked = _load_valid(args)
    if checked is None:
        return EXIT_INPUT
    loaded, _, report = checked
    problem = build_jdc(loaded.design, loaded.tables, cap=args.cap)
    verdict = jdc_feasible(problem, eps_lp=args.tol_lp)
    report.update(verdict.as_json())
    report["variables"] = problem.n_vars
    report["constraints"] = len(problem.constraints)
    report["fine"] = None
    report["theorem4_max_discrepancy"] = None
    if is_2x2_binary(loaded.design, loaded.tables):
        try:
            fs = FineSystem.from_tables(loaded.design, loaded.tables, args.tol_test)
            report["fine"] = fine_inequalities(fs, args.tol_test).as_json()
            eq = fine_chain_equivalence(fs, loaded.design, loaded.tables)
            report["theorem4_max_discrepancy"] = num_to_json(eq.max_discrepancy)
        except OrdistError as exc:
            report["fine"] = {"error": str(exc)}
    _emit(report, args, _jdc_text)
    return EXIT_OK if verdict.feasible else EXIT_VERDICT


def _jdc_text(report: dict):
    state = "feasible" if report["feasible"] else "infeasible"
    yield (
        f"joint distribution over {report['variables']} assignments: {state} "
        f"({report['constraints']} constraints, {report['arithmetic']} arithmetic)"
    )
    chain = report["certificate_chain"]
    if chain is not None:
        yield (
            f"refuted by the chain {_sequence_text(chain)} under {chain['metric']}, "
            f"residual {chain['residual']}"
        )
    fine = report["fine"]
    if isinstance(fine, dict) and fine.get("violations"):
        yield f"Bell-CHSH-Fine inequalities violated: {fine['violations']}"


def cmd_demo_normal(args) -> int:
    report = demo_chain_violation()
    doc = report.as_json()
    doc["rhs_total"] = num_to_json(sum(report.rhs_terms))
    if args.rho_grid:
        doc["rho_grid"] = [[rho, d] for rho, d in rho_grid()]
    _emit(doc, args, _demo_text)
    return EXIT_VERDICT if doc["violated"] else EXIT_OK


def _demo_text(doc: dict):
    seq = " -> ".join(f"({name},{value:g})" for name, value in doc["sequence"])
    yield f"sequence: {seq}"
    yield (
        f"lhs {doc['lhs']:.6g} <= rhs {doc['rhs_total']:.6g} is false; "
        f"residual {doc['residual']:.6g}"
    )
    yield "selective influence of the two inputs is ruled out."
    if "rho_grid" in doc:
        yield "rho        arccos(rho)/(2 pi)"
        for rho, d in doc["rho_grid"]:
            yield f"{rho:+.2f}      {d:.6f}"


def _emit(report: dict, args, text) -> None:
    """Print the report as JSON, or the lines ``text(report)`` derives from it."""
    if args.json:
        print(dumps_report(report), end="")
    else:
        for line in text(report):
            print(line)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for verdicts here
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    commands = {"check": cmd_check, "jdc": cmd_jdc, "demo-normal": cmd_demo_normal}
    # A command builds no reference cycles (tests/test_cli.py,
    # TestNoCyclicGarbage), so reference counting frees everything it
    # drops.  A collection during a command would walk its live containers,
    # tens of thousands while a large system's JSON tree is alive, and free
    # nothing.  Parsing stays outside: argparse's usage and help paths do
    # leave cycles.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return commands[args.command](args)
    except (OrdistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
