"""Reference irreducibility tests and walks.

`subset_scan_irreducible` is the straightforward definition that
`ordist.selectivity` replaced with a pair rule and a pruned walk.  Every
index subset of size 2 or more is looked up in the design, which makes it
exponential in the sequence length but easy to read.

`pair_rule_walk` is the pruned walk as it was before it ran on bit masks:
a cover graph of frozensets built by one `Design.cover` call per pair of
points, and a per-candidate pair rule (`may_follow`) that asks for every
candidate point whether it shares a treatment with an earlier one.  Tests
compare `is_irreducible`, `enumerate_realizable` and
`enumerate_irreducible` against both.
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


def cover_graph(design) -> list[frozenset]:
    """For each point of ``design.points()``, the indices of the points it
    shares a treatment with (itself included when any treatment holds it),
    one `Design.cover` call per ordered pair."""
    pts = design.points()
    return [
        frozenset(j for j, y in enumerate(pts) if design.cover((x, y)) is not None) for x in pts
    ]


def may_follow(prefix, y, length, near, pts, design) -> bool:
    """Whether point index y, at index j = len(prefix) of a sequence of
    `length`, keeps an irreducible-so-far prefix irreducible: y shares no
    treatment with an earlier point at index i, j - i >= 2, except the
    first point when y closes the sequence; a closing y differs from the
    first point, and for length 3 the triple lies in no treatment."""
    j = len(prefix)
    closing = j == length - 1
    if not near[y].isdisjoint(prefix[1 if closing else 0 : j - 1]):
        return False
    if closing:
        triple = (pts[k] for k in (*prefix, y))
        return y != prefix[0] and (length != 3 or design.cover(triple) is None)
    return True


def pair_rule_walk(design, max_len: int, irreducible: bool):
    """Treatment-realizable sequences of length 3..max_len as tuples of
    indices into ``design.points()``, shortest first, lexicographic within
    each length; with `irreducible` only the irreducible ones, pruned by
    `may_follow`."""
    pts = design.points()
    near = cover_graph(design)
    adj = [sorted(js) for js in near]
    for length in range(3, max_len + 1):
        stack: list[int] = []

        def walk():
            for y in adj[stack[-1]]:
                if irreducible and not may_follow(stack, y, length, near, pts, design):
                    continue
                if len(stack) < length - 1:
                    stack.append(y)
                    yield from walk()
                    stack.pop()
                elif stack[0] in near[y]:
                    yield (*stack, y)

        for x in range(len(pts)):
            stack.append(x)
            yield from walk()
            stack.pop()
