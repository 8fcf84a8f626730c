"""The benchmark's workloads and the outside-in check of every CLI call.

A workload turns a seed into a fixed batch of cases.  Each case is one
``ordist`` invocation on one generated system file whose verdict is known
by construction.  Batches interleave the sizes and verdicts, so a run that
stops part-way through a batch keeps roughly the batch's mix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from systems import System, joint_system, latent_system, pr_system, treatment_subset

#: PR weights, taken in turn: the LP's cost depends on lambda, so every
#: batch holds each weight equally often whatever the seed
PR_WEIGHTS = tuple(Fraction(k, 12) for k in range(7, 13))

EXTRA_METRICS = (
    "--metric", '{"kind": "p", "p": 1, "transform": [{"op": "power", "q": "1/2"}]}',
    "--metric", '{"kind": "classification", "cells": [["0"], ["1"]]}',
)


@dataclass(frozen=True)
class Case:
    system: System
    command: str
    options: tuple[str, ...] = ()

    def argv(self, path: str) -> list[str]:
        return [self.command, path, "--json", *self.options]


def _jdc_exact(rng) -> list[Case]:
    # (inputs, values) with binary outputs: 16, 64 and 64 hidden assignments.
    # The 3x2 size comes twice per round, so that the median call lies
    # inside one size's cost range rather than on the edge between two.
    sizes = ((2, 2), (2, 3), (3, 2), (3, 2))
    cases = []
    for k in range(25):
        for j, (n_inputs, n_values) in enumerate(sizes):
            tag = f"{k:02d}-{j}-{n_inputs}x{n_values}"
            cases.append(Case(joint_system(rng, f"joint-{tag}", n_inputs, n_values), "jdc"))
            lam = PR_WEIGHTS[k % len(PR_WEIGHTS)]
            cases.append(Case(pr_system(rng, f"pr-{tag}", n_inputs, n_values, lam), "jdc"))
    return cases


def _check_full(rng) -> list[Case]:
    # (inputs, values): 400, 1,000 and 1,296 tables
    sizes = ((4, 6), (3, 10), (2, 20))
    sound = [latent_system(rng, f"latent-{i}x{v}", i, v) for i, v in sizes]
    pr = [pr_system(rng, f"pr-{i}x{v}", i, v, PR_WEIGHTS[k]) for k, (i, v) in enumerate(sizes)]
    cases = [Case(s, "check") for s in sound]
    cases += [Case(s, "check") for s in pr]
    cases.append(Case(pr[1], "check", EXTRA_METRICS))
    return cases


def _check_restricted(rng) -> list[Case]:
    # 3x3 designs keeping 8, 9 or 11 of 27 treatments, and a 3x4 design
    # keeping 19 of 64 once in fourteen cases.  Every size stays under the
    # default cap of 1,000,000 realizable sequences; a 4x3 design at
    # --max-len 6 would not.  The enumeration work of a design varies
    # several-fold with its treatment subset, so the subsets come from a
    # fixed stream and the seed relabels them (see treatment_subset): the
    # seed changes every treatment set and table, not the batch's work.
    shape_rng = random.Random("check_restricted")
    shapes = ((3, 0.3), (3, 0.35), (3, 0.4)) * 4 + ((3, 0.3), (4, 0.3))
    cases = []
    for k in range(6):
        for j, (n_values, keep) in enumerate(shapes):
            subset = treatment_subset(shape_rng, rng, 3, n_values, keep)
            system = latent_system(rng, f"restricted-{k}-{j}-3x{n_values}", 3, n_values, subset)
            cases.append(Case(system, "check", ("--max-len", "6")))
    return cases


#: workload name -> batch maker (rng -> cases); BENCHMARK.json says why each
#: workload was chosen
WORKLOADS = {
    "jdc_exact": _jdc_exact,
    "check_full": _check_full,
    "check_restricted": _check_restricted,
}


def full_design_tetrads(system: System) -> int:
    """Number of alternating tetrads x, y, x', y' of a full design."""
    sizes = [len(vals) for _, vals in system.inputs]
    return sum(
        a * (a - 1) * b * (b - 1)
        for i, a in enumerate(sizes)
        for j, b in enumerate(sizes)
        if i != j
    )


class Checker:
    """Checks each invocation against the verdict its system was built
    with, re-checking witnesses and certificates with ordist's own exact
    helpers on data rebuilt from the system file.  An output already
    verified for the same case is not checked again."""

    def __init__(self, ordist):
        self.ordist = ordist
        self._problems = {}
        self._verified = set()

    def check(self, case: Case, path: str, code: Optional[int], out: str) -> Optional[str]:
        """None when the invocation is correct, else the reason it failed."""
        key = (path, case.options, code, out)
        if key in self._verified:
            return None
        expected = 0 if case.system.sound else 2
        if code != expected:
            return f"exit code {code}, expected {expected}"
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"truncated or malformed report: {exc}"
        try:
            reason = (self._check_jdc if case.command == "jdc" else self._check_suite)(
                case, path, report
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            reason = f"report lacks an expected field: {exc!r}"
        if reason is None:
            self._verified.add(key)
        return reason

    def _problem(self, path):
        if path not in self._problems:
            loaded = self.ordist.load_system(path)
            problem = self.ordist.build_jdc(loaded.design, loaded.tables)
            self._problems[path] = (loaded, problem)
        return self._problems[path]

    def _check_jdc(self, case: Case, path: str, report: dict) -> Optional[str]:
        loaded, problem = self._problem(path)
        if report["feasible"] is not case.system.sound:
            return f"feasible={report['feasible']}"
        if report["variables"] != problem.n_vars or report["constraints"] != len(problem.constraints):
            return "wrong problem size"
        if case.system.sound:
            witness = {
                tuple(entry["assignment"]): Fraction(entry["p"]) for entry in report["witness"]
            }
            if any(p < 0 for p in witness.values()):
                return "negative witness weight"
            if not self.ordist.witness_reproduces_tables(problem, witness, loaded.tables):
                return "witness does not reproduce the tables"
        else:
            y_of = {
                (tuple(e["treatment"]), tuple(e["outcome"])): Fraction(e["y"])
                for e in report["certificate"]
            }
            rows, rhs, y = [], [], []
            for c in problem.constraints:
                row = [0] * problem.n_vars
                for k in c.var_indices:
                    row[k] = 1
                rows.append(row)
                rhs.append(c.rhs)
                y.append(y_of[c.treatment, c.outcome])
            if not self.ordist.lp.verify_certificate(rows, rhs, y):
                return "certificate does not refute the system"
        if len(case.system.inputs) == 2 and all(len(v) == 2 for _, v in case.system.inputs):
            if report["fine"]["satisfied"] is not case.system.sound:
                return "Fine inequalities disagree with the known verdict"
            if Fraction(report["theorem4_max_discrepancy"]) != 0:
                return "Fine expressions and chain residuals disagree"
        return None

    def _check_suite(self, case: Case, path: str, report: dict) -> Optional[str]:
        if not report["marginal_selectivity"]["passed"]:
            return "marginal selectivity reported violated"
        if report["truncated"]:
            return "enumeration truncated"
        n_metrics = max(1, case.options.count("--metric"))
        if len(report["metrics"]) != n_metrics:
            return f"{len(report['metrics'])} metrics reported, expected {n_metrics}"
        if case.system.treatments is None:
            want = full_design_tetrads(case.system)
            if report["sequences_tested"] != want:
                return f"{report['sequences_tested']} sequences tested, expected {want}"
        elif report["sequences_tested"] < 1:
            return "no sequence tested"
        violations = report["violations"]
        if case.system.sound:
            return f"{len(violations)} violations on a sound system" if violations else None
        if not violations:
            return "no violation on a PR-embedded system"
        if any(Fraction(str(v["residual"])) >= 0 for v in violations):
            return "violation with a nonnegative residual"
        return None
