"""Closed-form chain tests for the bivariate-normal counterexample.

Two inputs range over [0, 1]; under treatment (v, w) the two outputs are
standard bivariate normal with correlation rho(v, w), by default the
saturating sum min(1, v + w).  Ordering the outputs by sign (A strictly
below B iff A < 0 <= B) gives the order-distance in closed form:

    D = Pr[A < 0, B >= 0] = arccos(rho) / (2 pi).

Marginal selectivity is automatic (margins are always standard normal),
yet the default system fails the chain test on the alternating sequence
(1,0), (2,1), (1,1), (2,0): the left side is arccos(0)/(2 pi) = 1/4 while
every right-hand term has rho = 1, hence distance 0.  Selective influence
is therefore impossible for this system, with no discretization involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InvalidCorrelation, SameInput
from .probspace import InputPoint
from .selectivity import ChainReport, _chain_residual


def saturating_sum(v: float, w: float) -> float:
    return min(1.0, v + w)


def binormal_order_distance(rho: float) -> float:
    """Pr[A < 0, B >= 0] for standard bivariate normal correlation rho."""
    if not -1 <= rho <= 1:
        raise InvalidCorrelation(f"correlation {rho!r} outside [-1, 1]")
    return math.acos(rho) / (2 * math.pi)


@dataclass(frozen=True)
class BinormalSystem:
    """Continuum system on the unit square with a correlation function."""

    corr: Callable[[float, float], float] = saturating_sum

    def order_distance(self, x: InputPoint, y: InputPoint) -> float:
        """Sign-order distance between the outputs at two input points.

        Zero for one point against itself; undefined (SameInput) for two
        distinct points of one input, which no treatment realizes.
        """
        if x == y:
            return 0.0
        if x.input == y.input:
            raise SameInput(f"points {x} and {y} share an input")
        if {x.input, y.input} != {"1", "2"}:
            raise ValueError(f"inputs must be '1' and '2', got {x.input!r}, {y.input!r}")
        v = x.value if x.input == "1" else y.value
        w = y.value if y.input == "2" else x.value
        return binormal_order_distance(self.corr(v, w))

    def chain_report(self, points: Sequence, eps_test: float = 1e-12) -> ChainReport:
        pts = tuple(
            p if isinstance(p, InputPoint) else InputPoint(str(p[0]), float(p[1]))
            for p in points
        )
        if len(pts) < 3:
            raise ValueError("a chain needs at least three points")
        d = self.order_distance
        lhs = d(pts[0], pts[-1])
        rhs = tuple(d(x, y) for x, y in zip(pts, pts[1:]))
        lhs, rhs, residual, violated = _chain_residual(lhs, rhs, eps_test)
        return ChainReport(
            sequence=pts,
            metric="order:sign",
            lhs=lhs,
            rhs_terms=rhs,
            residual=residual,
            violated=violated,
        )


def demo_chain_violation() -> ChainReport:
    """The canonical refutation: lhs 1/4 against three zero terms."""
    return BinormalSystem().chain_report([(1, 0.0), (2, 1.0), (1, 1.0), (2, 0.0)])


def rho_grid(start: float = -1.0, stop: float = 1.0, step: float = 0.1) -> list[tuple[float, float]]:
    """(rho, arccos(rho)/(2 pi)) pairs; the distance decreases in rho from
    1/2 at rho=-1 to 0 at rho=1."""
    out = []
    n = round((stop - start) / step)
    for k in range(n + 1):
        rho = min(1.0, max(-1.0, start + k * step))
        out.append((rho, binormal_order_distance(rho)))
    return out
