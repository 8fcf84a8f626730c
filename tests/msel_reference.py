"""Reference marginal-selectivity check: every comparison in the tables' own
numbers.

This is the straightforward scan that `ordist.selectivity` replaced with
comparisons of marginals summed in the tables' ints.  Every class member's
marginal is summed from its ``probs`` cells and every outcome is compared,
also when the two marginals are identical, which makes it slow but easy to
read.  Tests compare the production check against it: same verdict, same
worst discrepancy, same witness and the same per-class worst values.
"""

from __future__ import annotations

import itertools

from ordist.arith import EPS_TEST, Num, is_exact
from ordist.selectivity import MarginalSelectivityReport
from table_reference import sum_down


def reference_marginal_selectivity(design, tables, eps: float = EPS_TEST) -> MarginalSelectivityReport:
    tables = list(tables)
    worst: Num = 0
    witness = None
    classes = []
    subset_sizes = [1] + ([2] if len(design.inputs) >= 2 else [])
    for size in subset_sizes:
        for names in itertools.combinations(design.inputs, size):
            keep = [design.index(n) for n in names]
            groups: dict[tuple, list] = {}
            for t in tables:
                key = tuple(design.value_of(t.treatment, n) for n in names)
                groups.setdefault(key, []).append(t)
            for key, group in groups.items():
                if len(group) < 2:
                    continue
                ref = group[0]
                ref_m = sum_down(ref.probs, keep)
                class_worst: Num = 0
                for other in group[1:]:
                    m = sum_down(other.probs, keep)
                    outcomes = list(ref_m) + [k for k in m if k not in ref_m]
                    for outcome in outcomes:
                        a = ref_m.get(outcome, 0)
                        b = m.get(outcome, 0)
                        diff = abs(a - b)
                        if diff > class_worst:
                            class_worst = diff
                        if diff > worst:
                            worst = diff
                            witness = {
                                "inputs": list(names),
                                "assignment": list(key),
                                "treatments": [list(ref.treatment), list(other.treatment)],
                                "outcome": list(outcome) if isinstance(outcome, tuple) else [outcome],
                                "discrepancy": diff,
                            }
                classes.append((names, key, class_worst))
    passed = worst == 0 if is_exact(worst) else worst <= eps
    return MarginalSelectivityReport(
        passed=passed, max_discrepancy=worst, witness=witness, classes=tuple(classes)
    )
