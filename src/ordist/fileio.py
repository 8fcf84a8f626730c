"""JSON system files and metric configurations.

System schema::

    {
      "inputs": [{"name": "1", "values": ["x", "x'"]}, ...],
      "treatments": "full" | [["x", "y"], ...],
      "outcomes": [{"input": "1", "values": [...]},            # optional
                   {"input": "1", "value": "x", "values": [...]}, ...],
      "tables": [{"treatment": ["x", "y"],
                  "probs": [{"outcome": ["0", "1"], "p": 0.25},
                            {"outcome": ["1", "1"], "p": "3/4"}, ...]}, ...]
    }

Probabilities may be JSON numbers or strings like "3/4"; unlisted outcome
vectors are zero.  The "outcomes" block declares outcome value sets per
input (preferred) or per input point; without it they are inferred from
the tables.  Arithmetic mode "auto" keeps every probability exact when
all of them are integer ratios or short decimals, otherwise the whole
system is float.

Metric configuration schema::

    {"kind": "order" | "classification" | "p" | "entropy" | "frechet"
             | "separation" | "expected_ground",
     ...kind-specific fields...,
     "transform": [{"op": "power", "q": 0.5}, {"op": "bounded"},
                   {"op": "max"|"sum", "other": {...}},
                   {"op": "mixture", "others": [...], "weights": [...]}]}

Each transform step wraps the metric built so far in one of the metric
classes: "power" in PowerOf, "bounded" in BoundedOf, "max" in MaxOf,
"sum" in SumOf and "mixture" in MixtureOf, whose weights cover the
wrapped metric first, then "others" in order.  A malformed configuration
raises SystemFormatError.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Mapping

from .arith import FLOAT, RATIONAL, digit_limit, parse_number, parse_ratio
from .errors import SystemFormatError
from .metrics import (
    BoundedOf,
    ClassificationDistance,
    ConditionalEntropy,
    ExpectedGround,
    FrechetDistance,
    MaxOf,
    Metric,
    MixtureOf,
    OrderDistance,
    OrderSpec,
    PDistance,
    PowerOf,
    SeparationDistance,
    SumOf,
    numeric_embedding,
)
from .probspace import Design, InputPoint, OutcomeSpace, TreatmentTable


@dataclass(frozen=True, eq=False)
class LoadedSystem:
    design: Design
    tables: list[TreatmentTable]
    regime: str


def _reject_constant(name: str):
    # Python's json module reads these non-JSON literals as floats
    raise SystemFormatError(f"not valid JSON: {name} is not a JSON number")


def _read_json(source) -> dict:
    if isinstance(source, Mapping):
        return dict(source)
    try:
        if isinstance(source, (str, Path)):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = source.read()
        return json.loads(text, parse_float=Decimal, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError on reading, or nesting too deep
        raise SystemFormatError(f"not valid JSON: {exc}") from exc


def load_system(source, arithmetic: str = "auto") -> LoadedSystem:
    """Read a system file (path, file object or dict) into design+tables.

    Any malformed document raises SystemFormatError."""
    doc = _read_json(source)
    try:
        return _system_from_doc(doc, arithmetic)
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        raise SystemFormatError(f"bad system file: {exc}") from None


def _system_from_doc(doc: Mapping, arithmetic: str) -> LoadedSystem:
    try:
        inputs_spec = doc["inputs"]
        tables_spec = doc["tables"]
    except KeyError as exc:
        raise SystemFormatError(f"missing top-level key {exc}") from None
    if not isinstance(inputs_spec, list) or not inputs_spec:
        raise SystemFormatError("'inputs' must be a nonempty list")
    names = []
    values = {}
    for entry in inputs_spec:
        try:
            names.append(entry["name"])
            values[entry["name"]] = list(entry["values"])
        except (KeyError, TypeError):
            raise SystemFormatError(f"bad input entry {entry!r}") from None
    treatments = doc.get("treatments", "full")
    design = Design(names, values, None if treatments == "full" else treatments)

    declared: dict[InputPoint, tuple] = {}
    for entry in doc.get("outcomes", []):
        try:
            name = entry["input"]
            vals = tuple(entry["values"])
        except (KeyError, TypeError):
            raise SystemFormatError(f"bad outcomes entry {entry!r}") from None
        if name not in values:
            raise SystemFormatError(f"outcomes given for unknown input {name!r}")
        if "value" in entry:
            declared[InputPoint(name, entry["value"])] = vals
        else:
            for w in values[name]:
                declared[InputPoint(name, w)] = vals

    # each table's cells as (numerator, denominator) ints or floats; a
    # string literal is parsed once per document, as tables repeat them
    raw_tables = []
    exact = arithmetic != FLOAT
    parsed: dict[str, object] = {}
    for tspec in tables_spec:
        try:
            treatment = tuple(tspec["treatment"])
            probs_spec = tspec["probs"]
        except (KeyError, TypeError):
            raise SystemFormatError(f"bad table entry {tspec!r}") from None
        cells = {}
        for cell in probs_spec:
            try:
                outcome = tuple(cell["outcome"])
                raw = cell["p"]
            except (KeyError, TypeError):
                raise SystemFormatError(f"bad probability entry {cell!r}") from None
            if outcome in cells:
                raise SystemFormatError(f"outcome {outcome!r} listed twice")
            if not isinstance(raw, str):
                value = parse_ratio(raw, arithmetic)
            elif raw in parsed:
                value = parsed[raw]
            else:
                value = parsed[raw] = parse_ratio(raw, arithmetic)
            if isinstance(value, float):
                exact = False
            cells[outcome] = value
        raw_tables.append((treatment, cells))
    regime = RATIONAL if exact else FLOAT

    # canonical outcome axes per input point: declared order wins, else
    # first appearance in file order
    n = len(design.inputs)
    axes: dict[InputPoint, list] = {pt: list(vs) for pt, vs in declared.items()}
    for treatment, cells in raw_tables:
        if not cells:
            continue
        for outcome in cells:
            if len(outcome) != n:
                raise SystemFormatError(f"outcome {outcome!r} has wrong arity")
        points = [InputPoint(design.inputs[pos], treatment[pos]) for pos in range(n)]
        for pt, column in zip(points, zip(*cells)):
            axis = axes.setdefault(pt, [])
            new = [v for v in dict.fromkeys(column) if v not in axis]
            if new and pt in declared:
                raise SystemFormatError(
                    f"outcome value {new[0]!r} not among declared outcomes of {pt}"
                )
            axis.extend(new)

    shared = {pt: tuple(axis) for pt, axis in axes.items()}
    tables = []
    for treatment, cells in raw_tables:
        table_axes = []
        for pos, name in enumerate(design.inputs):
            pt = InputPoint(name, treatment[pos])
            if not shared.get(pt):
                raise SystemFormatError(f"no outcomes known for point {pt}")
            table_axes.append(shared[pt])
        if regime == RATIONAL:
            tables.append(_exact_table(design, treatment, table_axes, cells))
        else:
            probs = {o: v if isinstance(v, float) else v[0] / v[1] for o, v in cells.items()}
            tables.append(TreatmentTable(design, treatment, probs, axes=table_axes))
    return LoadedSystem(design=design, tables=tables, regime=regime)


def _exact_table(design: Design, treatment, axes, cells) -> TreatmentTable:
    """A table of (numerator, denominator) cells, scaled to ints over the
    lcm of the denominators; unlisted outcome vectors are zero."""
    den = math.lcm(*(d for _, d in cells.values()))
    scaled = {outcome: n * (den // d) for outcome, (n, d) in cells.items()}
    ints = [scaled.pop(outcome, 0) for outcome in itertools.product(*axes)]
    # every int of the table and their sum must stay printable
    top = max(den, max(ints), -min(ints))
    limit = digit_limit()
    if (top.bit_length() + len(ints).bit_length() + 1) * math.log10(2) >= limit:
        raise SystemFormatError(
            f"probabilities in treatment {treatment!r} need more than {limit} digits"
        )
    return TreatmentTable.from_ints(design, treatment, axes, ints, den)


def default_order_metric(design: Design, tables) -> Metric:
    """Order-distance ranking every point's outcomes by canonical order."""
    outcomes = OutcomeSpace.from_tables(design, list(tables))
    per_point = {
        pt: {v: k + 1 for k, v in enumerate(axis)}
        for pt, axis in outcomes.values.items()
    }
    return OrderDistance(OrderSpec({}, per_point), "order:index")


def _parse_embed(spec):
    if spec in (None, "numeric"):
        return numeric_embedding
    if isinstance(spec, Mapping):
        return {k: parse_number(v, "auto") for k, v in spec.items()}
    raise SystemFormatError(f"bad embedding spec {spec!r}")


def _parse_per_point_ranks(entries) -> dict:
    out = {}
    for entry in entries:
        try:
            pt = InputPoint(entry["input"], entry["value"])
            ranks = {k: int(v) for k, v in entry["rank"].items()}
        except (KeyError, TypeError, ValueError):
            raise SystemFormatError(f"bad per-point rank entry {entry!r}") from None
        out[pt] = ranks
    return out


def load_metric(source) -> Metric:
    """Build a metric from a configuration dict, file path or JSON text.

    Any malformed configuration raises SystemFormatError."""
    if isinstance(source, str) and source.lstrip().startswith("{"):
        source = io.StringIO(source)
    doc = _read_json(source)
    try:
        return _metric_from_config(doc)
    except KeyError as exc:
        raise SystemFormatError(f"metric config is missing {exc}") from None
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        raise SystemFormatError(f"bad metric config: {exc}") from None


def _metric_from_config(doc: Mapping) -> Metric:
    try:
        kind = doc["kind"]
    except KeyError:
        raise SystemFormatError("metric config needs a 'kind'") from None
    if kind == "order":
        rank = {k: int(v) for k, v in doc.get("rank", {}).items()}
        per_point = _parse_per_point_ranks(doc.get("rank_per_point", []))
        base: Metric = OrderDistance(OrderSpec(rank, per_point))
    elif kind == "classification":
        cells = tuple(tuple(c) for c in doc.get("cells", []))
        per_point = {}
        for entry in doc.get("cells_per_point", []):
            pt = InputPoint(entry["input"], entry["value"])
            per_point[pt] = tuple(tuple(c) for c in entry["cells"])
        base = ClassificationDistance(cells, per_point)
    elif kind == "p":
        p_spec = doc.get("p", 1)
        p = math.inf if p_spec in ("inf", "infinity") else parse_number(p_spec, "auto")
        base = PDistance(_parse_embed(doc.get("embed")), p)
    elif kind == "entropy":
        base = ConditionalEntropy(float(doc.get("base", 2.0)))
    elif kind == "frechet":
        base = FrechetDistance(_parse_embed(doc.get("embed")))
    elif kind == "separation":
        u = {k: parse_number(v, "auto") for k, v in doc["u"].items()}
        base = SeparationDistance(u, _parse_embed(doc.get("embed")))
    elif kind == "expected_ground":
        vals = tuple(doc["values"])
        matrix = doc["ground"]
        ground = {
            (a, b): parse_number(matrix[i][j], "auto")
            for i, a in enumerate(vals)
            for j, b in enumerate(vals)
        }
        base = ExpectedGround(ground, vals)
    else:
        raise SystemFormatError(f"unknown metric kind {kind!r}")

    for step in doc.get("transform", []):
        op = step.get("op")
        if op == "power":
            base = PowerOf(base, parse_number(step["q"], "auto"))
        elif op == "bounded":
            base = BoundedOf(base)
        elif op == "max":
            base = MaxOf(base, _metric_from_config(step["other"]))
        elif op == "sum":
            base = SumOf(base, _metric_from_config(step["other"]))
        elif op == "mixture":
            others = tuple(_metric_from_config(o) for o in step["others"])
            weights = tuple(parse_number(w, "auto") for w in step["weights"])
            base = MixtureOf((base, *others), weights)
        else:
            raise SystemFormatError(f"unknown transform op {op!r}")
    return base


def dump_system(design: Design, tables) -> dict:
    """Serialize a system back to the JSON schema (zero cells omitted)."""
    doc = {
        "inputs": [
            {"name": name, "values": list(design.values[name])}
            for name in design.inputs
        ],
        "treatments": "full"
        if design.is_full
        else [list(t) for t in design.treatments],
        "outcomes": [],
        "tables": [],
    }
    outcomes = OutcomeSpace.from_tables(design, list(tables))
    for pt, axis in outcomes.values.items():
        doc["outcomes"].append(
            {"input": pt.input, "value": pt.value, "values": list(axis)}
        )
    for t in tables:
        doc["tables"].append(
            {
                "treatment": list(t.treatment),
                "probs": [
                    {"outcome": list(o), "p": _num_to_doc(p)}
                    for o, p in t.probs.items()
                    if p != 0
                ],
            }
        )
    return doc


def _num_to_doc(p):
    from fractions import Fraction

    return str(p) if isinstance(p, Fraction) else p


def _decimal_text(value):
    # a label read as a JSON decimal (an outcome such as 0.5) prints as
    # its decimal text
    if isinstance(value, Decimal):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def dumps_report(report: Mapping) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.
    Identical inputs and configuration produce byte-identical output."""
    return (
        json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False, default=_decimal_text)
        + "\n"
    )
