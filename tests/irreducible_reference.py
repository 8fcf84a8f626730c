"""Reference irreducibility test: an exhaustive scan of index subsets.

This is the straightforward definition that `ordist.selectivity` replaced
with a pair rule and a pruned walk.  Every index subset of size 2 or more
is looked up in the design, which makes it exponential in the sequence
length but easy to read.  Tests compare `is_irreducible` and
`enumerate_irreducible` against it.
"""

from __future__ import annotations

import itertools


def subset_scan_irreducible(points, design) -> bool:
    """True when the only index subsequences of size > 1 lying inside some
    treatment are the closing pair {first, last} and the adjacent pairs,
    and the endpoints differ."""
    l = len(points)
    if points[0] == points[-1]:
        return False
    allowed = {frozenset((0, l - 1))}
    for i in range(1, l):
        allowed.add(frozenset((i - 1, i)))
    for size in range(2, l + 1):
        for combo in itertools.combinations(range(l), size):
            if frozenset(combo) in allowed:
                continue
            if design.cover(frozenset(points[i] for i in combo)) is not None:
                return False
    return True
