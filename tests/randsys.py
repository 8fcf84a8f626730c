"""Seeded random generators shared by the test modules.

Everything here produces exact rational probabilities so that inequality
checks in tests can be exact.  Marginal selectivity, where promised, holds
by construction: treatments draw their bivariate couplings from per-point
margins (and per-pair couplings) fixed before treatments are assembled.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ordist import Design, InputPoint, JointDist, OrderSpec, TreatmentTable


def compose(rng, total: int, cells: int) -> list[int]:
    """Uniform random composition of `total` into `cells` nonnegative ints."""
    if cells == 1:
        return [total]
    cuts = sorted(rng.sample(range(total + cells - 1), cells - 1))
    parts = []
    prev = -1
    for c in cuts:
        parts.append(c - prev - 1)
        prev = c
    parts.append(total + cells - 2 - prev)
    return parts


def random_dist(rng, n: int, den: int | None = None) -> list[Fraction]:
    den = den or rng.choice([6, 8, 12, 16, 24, 60])
    return [Fraction(k, den) for k in compose(rng, den, n)]


def random_joint(rng, sizes: tuple[int, ...], den: int | None = None) -> JointDist:
    """Random rational joint over axes with distinct labels per axis."""
    axes = tuple(
        tuple(f"{chr(97 + ax)}{k}" for k in range(n)) for ax, n in enumerate(sizes)
    )
    cells = 1
    for n in sizes:
        cells *= n
    weights = random_dist(rng, cells, den)
    probs = dict(zip(itertools.product(*axes), weights))
    return JointDist(axes, probs)


def vertex_coupling(rng, rows: list[Fraction], cols: list[Fraction]) -> list[list[Fraction]]:
    """A random extreme coupling of two margins (greedy corner rule under a
    random row/column order)."""
    supply = list(rows)
    demand = list(cols)
    order_r = rng.sample(range(len(rows)), len(rows))
    order_c = rng.sample(range(len(cols)), len(cols))
    out = [[Fraction(0)] * len(cols) for _ in rows]
    ri = ci = 0
    while ri < len(order_r) and ci < len(order_c):
        i, j = order_r[ri], order_c[ci]
        amt = min(supply[i], demand[j])
        out[i][j] += amt
        supply[i] -= amt
        demand[j] -= amt
        if supply[i] == 0:
            ri += 1
        if demand[j] == 0 and ci < len(order_c):
            ci += 1
        if supply[i] != 0 and demand[j] != 0:
            raise AssertionError("corner rule stalled")
    return out


def random_coupling(rng, rows: list[Fraction], cols: list[Fraction]) -> list[list[Fraction]]:
    """Random coupling with the given margins: a convex mix of extreme ones."""
    k = rng.randint(1, 3)
    weights = random_dist(rng, k, den=rng.choice([4, 6, 8]))
    total = [[Fraction(0)] * len(cols) for _ in rows]
    for w in weights:
        if w == 0:
            continue
        v = vertex_coupling(rng, rows, cols)
        for i in range(len(rows)):
            for j in range(len(cols)):
                total[i][j] += w * v[i][j]
    return total


def frechet_sample(rng, alpha: Fraction, beta: Fraction, grid: int = 24) -> Fraction:
    """A joint cell probability consistent with the two margins.

    Biased toward the interval endpoints (extreme correlation patterns)
    so that infeasible systems show up at a healthy rate.
    """
    lo = max(Fraction(0), alpha + beta - 1)
    hi = min(alpha, beta)
    roll = rng.random()
    if roll < 0.3:
        return lo
    if roll < 0.6:
        return hi
    t = Fraction(rng.randint(0, grid), grid)
    return lo + t * (hi - lo)


def binary_design() -> Design:
    return Design(["1", "2"], {"1": ["x", "x'"], "2": ["y", "y'"]})


def table_2x2(design: Design, treatment, p11, alpha, beta) -> TreatmentTable:
    probs = {
        ("0", "0"): p11,
        ("0", "1"): alpha - p11,
        ("1", "0"): beta - p11,
        ("1", "1"): 1 - alpha - beta + p11,
    }
    return TreatmentTable(design, treatment, probs, axes=[("0", "1"), ("0", "1")])


def random_2x2_system(rng) -> tuple[Design, list[TreatmentTable]]:
    """Random marginally selective 2x2 factorial system with binary outputs.

    Margins per input point are drawn first; each treatment's joint cell is
    then sampled inside its feasibility interval, so marginal selectivity
    is exact while joint-distribution feasibility is up to chance.
    """
    design = binary_design()
    den = rng.choice([8, 10, 12, 16])

    def margin():
        # near-balanced margins leave the most room for incompatibility
        if rng.random() < 0.5:
            return Fraction(1, 2)
        return Fraction(rng.randint(0, den), den)

    margins = {"x": margin(), "x'": margin(), "y": margin(), "y'": margin()}
    tables = []
    for u in ("x", "x'"):
        for v in ("y", "y'"):
            alpha, beta = margins[u], margins[v]
            tables.append(table_2x2(design, (u, v), frechet_sample(rng, alpha, beta), alpha, beta))
    return design, tables


def pr_box(design: Design | None = None) -> tuple[Design, list[TreatmentTable]]:
    """Perfect correlation on three treatments, anticorrelation on the
    fourth, uniform margins: the canonical infeasible system."""
    design = design or binary_design()
    h = Fraction(1, 2)
    corr = {("0", "0"): h, ("1", "1"): h}
    anti = {("0", "1"): h, ("1", "0"): h}
    tables = []
    for u in ("x", "x'"):
        for v in ("y", "y'"):
            cells = anti if (u, v) == ("x'", "y'") else corr
            tables.append(
                TreatmentTable(design, (u, v), cells, axes=[("0", "1"), ("0", "1")])
            )
    return design, tables


def pr_embedded_system(n_inputs: int, n_values: int) -> tuple[Design, list[TreatmentTable]]:
    """A full design of fair binary outputs: outputs 1 and 2 form a PR box
    on the first two values of inputs 1 and 2 and are independent
    elsewhere, and every other output is independent of the rest.  Every
    margin is 1/2, so the system is marginally selective and infeasible."""
    names = [str(k + 1) for k in range(n_inputs)]
    design = Design(names, {name: [f"v{k}" for k in range(n_values)] for name in names})
    block = {"v0", "v1"}
    h = Fraction(1, 2)
    corr = {("0", "0"): h, ("1", "1"): h}
    anti = {("0", "1"): h, ("1", "0"): h}
    indep = {(a, b): h * h for a in ("0", "1") for b in ("0", "1")}
    tables = []
    for t in design.iter_treatments():
        if t[0] in block and t[1] in block:
            pair = anti if t[:2] == ("v1", "v1") else corr
        else:
            pair = indep
        rest = h ** (n_inputs - 2)
        cells = {
            (*o, *tail): p * rest
            for o, p in pair.items()
            for tail in itertools.product("01", repeat=n_inputs - 2)
        }
        tables.append(TreatmentTable(design, t, cells, axes=[("0", "1")] * n_inputs))
    return design, tables


def product_system() -> tuple[Design, list[TreatmentTable]]:
    """Independent fair coins under every treatment."""
    design = binary_design()
    q = Fraction(1, 4)
    cells = {(a, b): q for a in ("0", "1") for b in ("0", "1")}
    tables = [
        TreatmentTable(design, t, cells, axes=[("0", "1"), ("0", "1")])
        for t in design.iter_treatments()
    ]
    return design, tables


def sign_system() -> tuple[Design, list[TreatmentTable]]:
    """The bivariate-normal example discretized by sign: independent under
    (0,0), perfectly correlated under the other three treatments."""
    design = Design(["1", "2"], {"1": ["0", "1"], "2": ["0", "1"]})
    q = Fraction(1, 4)
    h = Fraction(1, 2)
    indep = {(a, b): q for a in ("neg", "pos") for b in ("neg", "pos")}
    corr = {("neg", "neg"): h, ("pos", "pos"): h}
    axes = [("neg", "pos"), ("neg", "pos")]
    tables = []
    for t in design.iter_treatments():
        cells = indep if t == ("0", "0") else corr
        tables.append(TreatmentTable(design, t, cells, axes=axes))
    return design, tables


def random_coupled_system(
    rng,
    n_inputs: int = 2,
    max_input_values: int = 3,
    out_sizes: tuple[int, int] = (2, 3),
    restrict_phi: bool = True,
) -> tuple[Design, list[TreatmentTable]]:
    """Marginally selective random system over 2 or 3 inputs.

    Per-point output margins are fixed first; every cross-pair of points of
    inputs 1 and 2 gets one fixed random coupling of its margins, reused by
    every treatment containing that pair of points.  A third input, when
    present, is independent of the rest, which keeps every pairwise
    marginal treatment-independent as well.
    """
    names = [str(k + 1) for k in range(n_inputs)]
    values = {n: [f"w{k}" for k in range(rng.randint(2, max_input_values))] for n in names}
    design_full = Design(names, values)
    all_treatments = list(design_full.iter_treatments())
    if restrict_phi:
        k = rng.randint(2, len(all_treatments))
        chosen = sorted(rng.sample(range(len(all_treatments)), k))
        treatments = [all_treatments[i] for i in chosen]
        design = Design(names, values, treatments)
    else:
        design = design_full
        treatments = all_treatments

    axes = {}
    margins = {}
    for pt in design.points():
        n_out = rng.randint(*out_sizes)
        axes[pt] = tuple(f"o{k}" for k in range(n_out))
        margins[pt] = random_dist(rng, n_out, den=rng.choice([6, 12, 24]))

    couplings = {}

    def coupling(p1: InputPoint, p2: InputPoint):
        key = (p1, p2)
        if key not in couplings:
            couplings[key] = random_coupling(rng, margins[p1], margins[p2])
        return couplings[key]

    tables = []
    for t in treatments:
        p1 = InputPoint(names[0], t[0])
        p2 = InputPoint(names[1], t[1])
        c12 = coupling(p1, p2)
        probs = {}
        if n_inputs == 2:
            for i, a in enumerate(axes[p1]):
                for j, b in enumerate(axes[p2]):
                    probs[(a, b)] = c12[i][j]
            tables.append(
                TreatmentTable(design, t, probs, axes=[axes[p1], axes[p2]])
            )
        else:
            p3 = InputPoint(names[2], t[2])
            m3 = margins[p3]
            for i, a in enumerate(axes[p1]):
                for j, b in enumerate(axes[p2]):
                    for k, c in enumerate(axes[p3]):
                        probs[(a, b, c)] = c12[i][j] * m3[k]
            tables.append(
                TreatmentTable(design, t, probs, axes=[axes[p1], axes[p2], axes[p3]])
            )
    return design, tables


def system_from_joint(
    rng,
    n_inputs: int = 2,
    n_values: int = 2,
    out_size: int = 2,
    den: int | None = None,
) -> tuple[Design, list[TreatmentTable], dict]:
    """Sample an explicit joint distribution over all input points and
    marginalize it to every treatment: a sound system by construction."""
    names = [str(k + 1) for k in range(n_inputs)]
    values = {n: [f"w{k}" for k in range(n_values)] for n in names}
    design = Design(names, values)
    points = design.points()
    axes = {pt: tuple(f"o{k}" for k in range(out_size)) for pt in points}
    cells = out_size ** len(points)
    weights = random_dist(rng, cells, den or rng.choice([12, 24, 48]))
    joint = dict(zip(itertools.product(*(axes[pt] for pt in points)), weights))
    pos = {pt: i for i, pt in enumerate(points)}
    tables = []
    for t in design.iter_treatments():
        idx = [pos[InputPoint(n, t[i])] for i, n in enumerate(names)]
        probs: dict[tuple, Fraction] = {}
        for assignment, p in joint.items():
            key = tuple(assignment[i] for i in idx)
            probs[key] = probs.get(key, Fraction(0)) + p
        tables.append(
            TreatmentTable(
                design, t, probs, axes=[axes[InputPoint(n, t[i])] for i, n in enumerate(names)]
            )
        )
    return design, tables, joint


def random_order_spec(rng, tables) -> OrderSpec:
    """Random per-point ranks (ties allowed) over the tables' outcome axes."""
    per_point = {}
    for t in tables:
        for pos, name in enumerate(t.design.inputs):
            pt = InputPoint(name, t.treatment[pos])
            if pt not in per_point:
                axis = t.axes[pos]
                per_point[pt] = {v: rng.randint(1, len(axis)) for v in axis}
    return OrderSpec({}, per_point)


def point_axes(tables) -> dict[InputPoint, tuple]:
    axes = {}
    for t in tables:
        for pos, name in enumerate(t.design.inputs):
            axes.setdefault(InputPoint(name, t.treatment[pos]), t.axes[pos])
    return axes


def canonical_order_specs(tables) -> tuple[OrderSpec, OrderSpec]:
    """Strict index-order ranks, plus the variant with the last input's
    ranks reversed (the pair that catches anticorrelation patterns)."""
    axes = point_axes(tables)
    last = tables[0].design.inputs[-1]
    by_index = {}
    reversed_last = {}
    for pt, axis in axes.items():
        by_index[pt] = {v: k + 1 for k, v in enumerate(axis)}
        if pt.input == last:
            reversed_last[pt] = {v: len(axis) - k for k, v in enumerate(axis)}
        else:
            reversed_last[pt] = {v: k + 1 for k, v in enumerate(axis)}
    return OrderSpec({}, by_index), OrderSpec({}, reversed_last)


def random_embedding(rng, values) -> dict:
    return {v: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for v in values}
