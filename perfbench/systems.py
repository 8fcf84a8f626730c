"""Seeded system generators whose verdicts are known by construction.

Every system is exact rational with binary outputs labelled "0" and "1".

* ``joint_system``: an explicit joint over all input points, marginalized
  to every treatment.  Selective influence holds, so the JDC is feasible
  and no chain inequality can fail.
* ``latent_system``: outputs drawn from one shared latent variable with
  per-point conditionals.  The points are conditionally independent given
  the latent value, which is again a joint over all points: sound.
* ``pr_system``: a noisy PR box with weight lambda in (1/2, 1] on two values
  of each of the first two inputs, uniform margins there, random couplings
  of per-point margins for every other pair of the first two inputs and
  independent outputs for the remaining inputs.  All 1- and 2-input
  marginals are treatment-independent, so marginal selectivity holds, yet
  the embedded PR box has no joint.  Its chain with the anticorrelated pair
  closing the tetrad has residual (1 - 2 lambda) / 2 < 0 under the
  low-first order-distance.

A system is plain data (``System``); :func:`write_system` turns it into
ordist objects and writes it with ``ordist.dump_system``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional

BINARY = ("0", "1")


@dataclass(frozen=True)
class System:
    name: str
    inputs: tuple[tuple[str, tuple[str, ...]], ...]
    treatments: Optional[tuple[tuple[str, ...], ...]]
    tables: dict  # treatment -> {outcome vector: Fraction}
    sound: bool

    def all_treatments(self):
        if self.treatments is not None:
            return self.treatments
        return tuple(itertools.product(*(vals for _, vals in self.inputs)))


def make_inputs(n_inputs: int, n_values: int) -> tuple:
    return tuple(
        (str(i + 1), tuple(f"{chr(97 + i)}{k}" for k in range(n_values)))
        for i in range(n_inputs)
    )


def _composition(rng, total: int, cells: int) -> list[int]:
    """Uniform random composition of `total` into `cells` nonnegative ints."""
    cuts = sorted(rng.sample(range(total + cells - 1), cells - 1))
    bounds = [-1, *cuts, total + cells - 1]
    return [bounds[k + 1] - bounds[k] - 1 for k in range(cells)]


def joint_system(rng, name: str, n_inputs: int, n_values: int) -> System:
    """Random rational joint over every point's output, marginalized."""
    inputs = make_inputs(n_inputs, n_values)
    n_points = n_inputs * n_values
    den = rng.choice([24, 36, 48, 60])
    weights = _composition(rng, den, 2**n_points)
    treatments = tuple(itertools.product(*(vals for _, vals in inputs)))
    tables = {}
    for t in treatments:
        # offset of each treatment point in the point-major assignment vector
        pos = [i * n_values + inputs[i][1].index(w) for i, w in enumerate(t)]
        cells = {o: 0 for o in itertools.product(BINARY, repeat=n_inputs)}
        for assignment, w in zip(itertools.product(BINARY, repeat=n_points), weights):
            if w:
                cells[tuple(assignment[k] for k in pos)] += w
        tables[t] = {o: Fraction(c, den) for o, c in cells.items()}
    return System(name, inputs, None, tables, True)


def treatment_subset(shape_rng, rng, n_inputs: int, n_values: int, keep: float) -> list:
    """round(keep * n_values ** n_inputs) treatments as value-index tuples.

    `shape_rng` draws the subset and `rng` then permutes each input's
    values.  Subsets drawn from equal `shape_rng` states are therefore
    isomorphic whatever `rng` is: they differ as treatment sets but have
    the same realizable and irreducible sequence counts.
    """
    full = list(itertools.product(range(n_values), repeat=n_inputs))
    base = shape_rng.sample(full, round(keep * len(full)))
    perms = [rng.sample(range(n_values), n_values) for _ in range(n_inputs)]
    return sorted(tuple(perms[i][v] for i, v in enumerate(t)) for t in base)


def latent_system(rng, name: str, n_inputs: int, n_values: int,
                  subset: Optional[list] = None) -> System:
    """Shared-latent system over a full design, or over the treatments
    `subset` (value-index tuples) when given."""
    inputs = make_inputs(n_inputs, n_values)
    treatments = None
    chosen = list(itertools.product(*(vals for _, vals in inputs)))
    if subset is not None:
        chosen = [tuple(inputs[i][1][v] for i, v in enumerate(t)) for t in subset]
        treatments = tuple(chosen)
    levels = rng.choice([2, 3])
    prior_den = 6
    prior = _composition(rng, prior_den - levels, levels)
    prior = [p + 1 for p in prior]  # every latent level has mass
    cond_den = 4
    # cond[i][w][z]: numerator of Pr[output of point (i, w) = "1" | z]
    cond = [
        {w: [rng.randint(0, cond_den) for _ in range(levels)] for w in vals}
        for _, vals in inputs
    ]
    den = prior_den * cond_den**n_inputs
    tables = {}
    for t in chosen:
        cells = {}
        for o in itertools.product(BINARY, repeat=n_inputs):
            num = 0
            for z in range(levels):
                num += prior[z] * prod(
                    cond[i][w][z] if o[i] == "1" else cond_den - cond[i][w][z]
                    for i, w in enumerate(t)
                )
            cells[o] = Fraction(num, den)
        tables[t] = cells
    return System(name, inputs, treatments, tables, True)


def _binary_coupling(rng, alpha: Fraction, beta: Fraction) -> dict:
    """Coupling of Pr[A="0"] = alpha and Pr[B="0"] = beta on a grid of its
    Frechet interval."""
    lo = max(Fraction(0), alpha + beta - 1)
    hi = min(alpha, beta)
    p00 = lo + Fraction(rng.randint(0, 6), 6) * (hi - lo)
    return {
        ("0", "0"): p00,
        ("0", "1"): alpha - p00,
        ("1", "0"): beta - p00,
        ("1", "1"): 1 - alpha - beta + p00,
    }


def pr_system(rng, name: str, n_inputs: int, n_values: int, lam: Fraction) -> System:
    """Noisy PR box with weight 1/2 < lam <= 1 embedded in a marginally
    selective system."""
    if not Fraction(1, 2) < lam <= 1:
        raise ValueError(f"PR weight {lam} outside (1/2, 1]")
    inputs = make_inputs(n_inputs, n_values)
    (_, vals1), (_, vals2) = inputs[0], inputs[1]
    block1 = rng.sample(vals1, 2)
    block2 = rng.sample(vals2, 2)
    anti = (rng.choice(block1), rng.choice(block2))
    same = (1 + lam) / 4
    diff = (1 - lam) / 4
    half = Fraction(1, 2)

    def margin(point_in_block):
        return half if point_in_block else Fraction(rng.randint(1, 5), 6)

    alpha = {w: margin(w in block1) for w in vals1}
    beta = {w: margin(w in block2) for w in vals2}
    coupling = {}
    for a in vals1:
        for b in vals2:
            if a in block1 and b in block2:
                hi, lo = (diff, same) if (a, b) == anti else (same, diff)
                coupling[a, b] = {("0", "0"): hi, ("1", "1"): hi, ("0", "1"): lo, ("1", "0"): lo}
            else:
                coupling[a, b] = _binary_coupling(rng, alpha[a], beta[b])
    rest = [
        {w: Fraction(rng.randint(1, 5), 6) for w in vals} for _, vals in inputs[2:]
    ]
    tables = {}
    for t in itertools.product(*(vals for _, vals in inputs)):
        c12 = coupling[t[0], t[1]]
        cells = {}
        for o in itertools.product(BINARY, repeat=n_inputs):
            p = c12[o[0], o[1]]
            for k, w in enumerate(t[2:]):
                p0 = rest[k][w]
                p *= p0 if o[k + 2] == "0" else 1 - p0
            cells[o] = p
        tables[t] = cells
    return System(name, inputs, None, tables, False)


def to_ordist(ordist, system: System):
    """Design and tables of `system` as ordist objects."""
    names = [n for n, _ in system.inputs]
    design = ordist.Design(names, dict(system.inputs), system.treatments)
    axes = [BINARY] * len(names)
    tables = [
        ordist.TreatmentTable(design, t, system.tables[t], axes=axes)
        for t in system.all_treatments()
    ]
    return design, tables


def write_system(ordist, system: System, path) -> None:
    design, tables = to_ordist(ordist, system)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ordist.dump_system(design, tables), fh)
