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
vectors are zero.  A string where the schema shows a list is refused, not
read as the list of its characters.  The "outcomes" block declares outcome value sets per
input (preferred) or per input point; without it they are inferred from
the tables.  Every probability is held exactly, a literal that reads as
a float (see :mod:`ordist.arith`) as the binary fraction it equals; a
system with such a literal is labelled "float", and so are its tables.

The loader reads a document in three passes: literals, axes, tables.  It
parses each distinct string literal once.  Tables that list the same
outcome vectors in the same order share one cell order; a table listing
the same outcome lists as the table before it takes that order without
building its vectors again.  The axes are read once, table by table in
file order, and that pass raises its first fault itself; a point whose
column was already read is skipped.  Tables whose points have the same
outcome axes share one layout.  A layout's outcome -> position map, its
axis checks and its axes tuple are made once, and every table of the
layout holds that tuple.  Each table then costs one pass over its cells,
straight into its dense ints.  Only the literals and tables passes read
a malformed document again, cell by cell, to name its first fault.

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
raises SystemFormatError; nothing is coerced: a rank is a JSON integer or
a string of one, and cells, values, ground rows and weights are lists.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring
from pathlib import Path
from typing import Mapping, Optional

from .arith import FLOAT, RATIONAL, digit_limit, parse_number, parse_ratio, shown
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
from .probspace import Design, InputPoint, TreatmentTable, point_axes


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
    """The loader's three passes (see the module docstring).  Where the
    literals or tables pass meets a fault it gives way to a table-by-table,
    cell-by-cell read; the axes pass is read in file order already.  Each
    raises the first fault in file order."""
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
            values[entry["name"]] = _list(entry["values"], "values")
        except (KeyError, TypeError, ValueError):
            raise SystemFormatError(f"bad input entry {entry!r}") from None
    treatments = doc.get("treatments", "full")
    design = Design(names, values, None if treatments == "full" else treatments)

    declared: dict[InputPoint, tuple] = {}
    for entry in doc.get("outcomes", []):
        try:
            name = entry["input"]
            vals = _list(entry["values"], "values")
        except (KeyError, TypeError, ValueError):
            raise SystemFormatError(f"bad outcomes entry {entry!r}") from None
        if name not in values:
            raise SystemFormatError(f"outcomes given for unknown input {name!r}")
        if "value" in entry:
            value = entry["value"]
            if value not in design.values[name]:
                raise SystemFormatError(
                    f"outcomes given for unknown value {value!r} of input {name!r}"
                )
            declared[InputPoint(name, value)] = vals
        else:
            for w in values[name]:
                declared[InputPoint(name, w)] = vals

    # literals: each table's treatment, cell order and (numerator, denominator) values
    literals = _Literals(arithmetic)
    parse = literals.__getitem__
    orders = _CellOrders()
    last_listed = last_order = None
    table_treatments, table_orders, table_cells = [], [], []
    for tspec in tables_spec:
        try:
            treatment = _list(tspec["treatment"], "a treatment")
            probs_spec = tspec["probs"]
        except (KeyError, TypeError, ValueError):
            raise SystemFormatError(f"bad table entry {tspec!r}") from None
        try:
            listed = list(map(_OUTCOME, probs_spec))
            if listed == last_listed:
                order = last_order
            else:
                if not _SEQUENCES.issuperset(map(type, listed)):
                    raise TypeError  # a string or a mapping: named cell by cell below
                outcomes = tuple(map(tuple, listed))
                order = orders[outcomes]
            cells = list(map(parse, map(_P, probs_spec))) if order.distinct else None
        except (KeyError, TypeError):
            cells = None
        if cells is None:
            outcomes, cells = _cells_in_file_order(probs_spec, literals)
            order = orders[outcomes]
        elif order.plain:
            # outcome lists equal to these are lists of the same strings
            # (a string or a mapping never equals a list): the next table
            # that lists them shares this order unchecked
            last_listed, last_order = listed, order
        if not order.plain:
            # labels that compare equal may print differently (1, 1.0,
            # true): such a table keeps its own labels
            order = _CellOrder(outcomes)
        table_treatments.append(treatment)
        table_orders.append(order)
        table_cells.append(cells)
    regime = FLOAT if arithmetic == FLOAT or literals.floats else RATIONAL

    # axes: declared order wins, else first appearance in file order
    axes = _axes(design, declared, table_treatments, table_orders)

    # tables: one layout per distinct tuple of axes.  A table of c cells
    # has ints of at most (c + 1) * bits bits, so a layout checks its
    # tables' digits only if that bound may reach the limit.
    limit = digit_limit()
    top_bits = (max(map(len, table_cells), default=0) + 1) * literals.bits
    layouts = _Layouts(design, axes, top_bits, limit)
    new_table = TreatmentTable._from_parts
    tables = []
    for treatment, order, cells, layout in zip(
        table_treatments, table_orders, table_cells, layouts.of(table_treatments)
    ):
        if layout is None or not layout.sound:
            tables.append(_table_in_file_order(design, axes, treatment, order, cells, regime))
            continue
        gather = layout.gather(order)
        den = math.lcm(*map(_DEN, cells))
        ints = [num * (den // d) for num, d in cells]
        if gather is not None:
            ints.append(0)
            ints = list(map(ints.__getitem__, gather))
        if layout.wide:
            _check_digits(treatment, max(den, max(ints), -min(ints)), len(ints), limit)
        tables.append(new_table(design, treatment, layout.axes, regime, ints, den))
    return LoadedSystem(design=design, tables=tables, regime=regime)


_OUTCOME = operator.itemgetter("outcome")
_SEQUENCES = {list, tuple}
_P = operator.itemgetter("p")
_DEN = operator.itemgetter(1)


class _Literals(dict):
    """A document's probability literals by their raw JSON value, each as
    (numerator, denominator), a float as the ratio it equals: each
    distinct string is parsed once, any other literal on every lookup.
    ``floats`` records whether a literal read as a float, ``bits`` the
    largest bit length of a numerator or denominator (up to 1075)."""

    def __init__(self, mode: str):
        super().__init__()
        self.mode = mode
        self.floats = False
        self.bits = 1

    def __missing__(self, raw):
        value = parse_ratio(raw, self.mode)
        if isinstance(value, float):
            self.floats = True
            value = value.as_integer_ratio()
        self.bits = max(self.bits, value[0].bit_length(), value[1].bit_length())
        if isinstance(raw, str):
            self[raw] = value
        return value


class _CellOrder:
    """The outcome vectors of a table's cells, in the order listed, which
    tables listing the same vectors share; ``columns`` holds, per input,
    its distinct values in order of appearance."""

    __slots__ = ("outcomes", "distinct", "plain", "columns")

    def __init__(self, outcomes: tuple):
        self.outcomes = outcomes
        self.distinct = len(set(outcomes)) == len(outcomes)
        self.plain = all(type(v) is str for o in outcomes for v in o)
        self.columns = None


class _CellOrders(dict):
    """The cell orders of one document, by their outcome vectors."""

    def __missing__(self, outcomes):
        order = self[outcomes] = _CellOrder(outcomes)
        return order


def _cells_in_file_order(probs_spec, literals: _Literals):
    """A table's outcome vectors and values read cell by cell, so that its
    first malformed cell, repeated outcome or bad literal raises."""
    outcomes = []
    seen = set()
    cells = []
    for cell in probs_spec:
        try:
            outcome = _list(cell["outcome"], "an outcome")
            raw = cell["p"]
        except (KeyError, TypeError, ValueError):
            raise SystemFormatError(f"bad probability entry {cell!r}") from None
        if outcome in seen:
            raise SystemFormatError(f"outcome {outcome!r} listed twice")
        seen.add(outcome)
        outcomes.append(outcome)
        cells.append(literals[raw] if isinstance(raw, str) else literals.__missing__(raw))
    return tuple(outcomes), cells


def _axes(design: Design, declared: Mapping, treatments, orders) -> dict:
    """Each input point's outcome values, declared or in order of first
    appearance, read table by table in file order; raises the first
    fault.  A table's checks run in this order: the arity of its
    outcomes (once per cell order), a short treatment, then each point's
    new values."""
    n = len(design.inputs)
    axes = {pt: list(vs) for pt, vs in declared.items()}
    # an (input, value, column) triple already read adds nothing
    read = set()
    for treatment, order in zip(treatments, orders):
        if not order.outcomes:
            continue
        if order.columns is None:
            for outcome in order.outcomes:
                if len(outcome) != n:
                    raise SystemFormatError(f"outcome {outcome!r} has wrong arity")
            order.columns = tuple(tuple(dict.fromkeys(c)) for c in zip(*order.outcomes))
        if len(treatment) < n:
            # before any point is read, as indexing the treatment would
            raise IndexError("tuple index out of range")
        for name, value, column in zip(design.inputs, treatment, order.columns):
            key = (name, value, column)
            if key in read:
                continue
            read.add(key)
            pt = InputPoint(name, value)
            axis = axes.setdefault(pt, [])
            new = [v for v in column if v not in axis]
            if new:
                if pt in declared:
                    raise SystemFormatError(
                        f"outcome value {new[0]!r} not among declared outcomes of {pt}"
                    )
                axis.extend(new)
    return axes


class _Layout:
    """The axes of one or more tables, with what their tables share: the
    outcome vectors in row-major order and, per cell order, where each
    listed cell goes."""

    __slots__ = ("axes", "sound", "wide", "outcomes", "index", "gathers")

    def __init__(self, axes: tuple, top_bits: int, limit: int):
        self.axes = axes
        self.sound = all(len(set(axis)) == len(axis) for axis in axes)
        self.outcomes = list(itertools.product(*axes))
        # whether a table with ints of top_bits bits may be too wide to print
        self.wide = _too_wide(top_bits, len(self.outcomes), limit)
        self.index = dict(zip(self.outcomes, itertools.count()))
        self.gathers: dict[_CellOrder, Optional[list]] = {}

    def gather(self, order: _CellOrder) -> Optional[list]:
        """Per outcome vector in row-major order, the index of the cell of
        ``order`` that lists it, or len(order.outcomes) when none does;
        None when ``order`` lists every vector in row-major order."""
        try:
            return self.gathers[order]
        except KeyError:
            pass
        listed = list(map(self.index.__getitem__, order.outcomes))
        if listed == list(range(len(self.outcomes))):
            gather = None
        else:
            gather = [len(listed)] * len(self.outcomes)
            for k, position in enumerate(listed):
                gather[position] = k
        self.gathers[order] = gather
        return gather


class _Layouts(dict):
    """A document's layouts by the ids of their axes.  ``ids`` maps, per
    input, each allowed value whose point has outcomes to its axis id;
    points with equal axes that print alike share one axis tuple."""

    def __init__(self, design: Design, axes: Mapping, top_bits: int, limit: int):
        super().__init__()
        self.top_bits = top_bits
        self.limit = limit
        self.ids: list[dict] = [{} for _ in design.inputs]
        self.axes: list[tuple] = []
        known: dict[tuple, int] = {}
        for pt, axis in axes.items():
            axis = tuple(axis)
            if not axis or pt.value not in design.values[pt.input]:
                continue
            key = (axis, tuple(map(repr, axis)))
            try:
                if key not in known:
                    known[key] = len(self.axes)
                    self.axes.append(axis)
            except TypeError:
                # an unhashable declared value: tables at this point take
                # the slow path, which names the fault
                continue
            self.ids[design.index(pt.input)][pt.value] = known[key]

    def __missing__(self, ids: tuple) -> _Layout:
        axes = tuple(map(self.axes.__getitem__, ids))
        layout = self[ids] = _Layout(axes, self.top_bits, self.limit)
        return layout

    def of(self, treatments: list) -> list:
        """Each treatment's layout, or None where the treatment has the
        wrong arity, an unknown value or a point without outcomes."""
        try:
            if set(map(len, treatments)) <= {len(self.ids)}:
                # per input, the axis id of each treatment's value
                columns = [
                    map(ids.__getitem__, map(operator.itemgetter(pos), treatments))
                    for pos, ids in enumerate(self.ids)
                ]
                return list(map(self.__getitem__, zip(*columns)))
        except (KeyError, TypeError):
            pass
        return list(map(self._of_one, treatments))

    def _of_one(self, treatment: tuple) -> Optional[_Layout]:
        if len(treatment) != len(self.ids):
            return None
        try:
            return self[tuple(map(dict.__getitem__, self.ids, treatment))]
        except (KeyError, TypeError):
            return None


def _too_wide(top_bits: int, cells: int, limit: int) -> bool:
    # every int of a table and their sum must stay printable
    return (top_bits + cells.bit_length() + 1) * math.log10(2) >= limit


def _check_digits(treatment, top: int, cells: int, limit: int) -> None:
    if _too_wide(top.bit_length(), cells, limit):
        raise SystemFormatError(
            f"probabilities in treatment {treatment!r} need more than {limit} digits"
        )


def _table_in_file_order(design: Design, axes: Mapping, treatment, order, cells, regime):
    """One table built point by point and cell by cell, for a table whose
    layout is not known sound, labelled `regime`; raises its first fault."""
    table_axes = []
    for pos, name in enumerate(design.inputs):
        pt = InputPoint(name, treatment[pos])
        if not axes.get(pt):
            raise SystemFormatError(f"no outcomes known for point {pt}")
        table_axes.append(tuple(axes[pt]))
    den = math.lcm(*(d for _, d in cells))
    scaled = {o: n * (den // d) for o, (n, d) in zip(order.outcomes, cells)}
    ints = [scaled.pop(outcome, 0) for outcome in itertools.product(*table_axes)]
    _check_digits(treatment, max(den, max(ints), -min(ints)), len(ints), digit_limit())
    return TreatmentTable.from_ints(design, treatment, table_axes, ints, den)._labelled(regime)


def _parse_embed(spec):
    if spec in (None, "numeric"):
        return numeric_embedding
    if isinstance(spec, Mapping):
        return {k: parse_number(v, "auto") for k, v in spec.items()}
    raise SystemFormatError(f"bad embedding spec {spec!r}")


def _rank(value) -> int:
    """A rank: a JSON integer or a string int() reads; a bool or a
    fraction is a ValueError, not rounded."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return int(value)
    raise ValueError(f"rank {value!r} is not an integer")


def _list(value, what: str) -> tuple:
    """A JSON list as a tuple; a string, which tuple() would split into
    characters, or any other value is a ValueError."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, not {value!r}")
    return tuple(value)


def _cells(value) -> tuple:
    """An ordered partition: a list of cells, each a list of values."""
    return tuple(_list(c, "a cell") for c in _list(value, "cells"))


def _parse_per_point_ranks(entries) -> dict:
    out = {}
    for entry in entries:
        try:
            pt = InputPoint(entry["input"], entry["value"])
            ranks = {k: _rank(v) for k, v in entry["rank"].items()}
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
        rank = {k: _rank(v) for k, v in doc.get("rank", {}).items()}
        per_point = _parse_per_point_ranks(doc.get("rank_per_point", []))
        base: Metric = OrderDistance(OrderSpec(rank, per_point))
    elif kind == "classification":
        per_point = {}
        for entry in doc.get("cells_per_point", []):
            per_point[InputPoint(entry["input"], entry["value"])] = _cells(entry["cells"])
        base = ClassificationDistance(_cells(doc.get("cells", [])), per_point)
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
        vals = _list(doc["values"], "values")
        matrix = [_list(row, "a ground row") for row in _list(doc["ground"], "ground")]
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
            weights = tuple(parse_number(w, "auto") for w in _list(step["weights"], "weights"))
            base = MixtureOf((base, *others), weights)
        else:
            raise SystemFormatError(f"unknown transform op {op!r}")
    return base


def dump_system(design: Design, tables) -> dict:
    """Serialize a system back to the JSON schema (zero cells omitted); a
    float-labelled table's cells are written as the floats they are."""
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
    for pt, axis in point_axes(design, tables).items():
        doc["outcomes"].append(
            {"input": pt.input, "value": pt.value, "values": list(axis)}
        )
    for t in tables:
        doc["tables"].append(
            {
                "treatment": list(t.treatment),
                "probs": [
                    {"outcome": list(o), "p": _num_to_doc(shown(p, t.regime()))}
                    for o, p in t.probs.items()
                    if p != 0
                ],
            }
        )
    return doc


def _num_to_doc(p):
    return str(p) if isinstance(p, Fraction) else p


#: json.dumps' spellings of the floats repr writes as nan, inf and -inf
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write(value, out: list, newline: str) -> None:
    """Append the JSON text of `value` to `out`; `newline` is a line break
    followed by the indent of the line `value` starts on.  A str item,
    the commonest leaf, is quoted in its container's loop."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            if type(item) is str:
                out.append(sep + encode_basestring(item))
            else:
                out.append(sep)
                _write(item, out, inner)
            sep = comma
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(value):
            out.append(f"{sep}{encode_basestring(key if isinstance(key, str) else _key_text(key))}: ")
            _write(value[key], out, inner)
            sep = comma
        out.append(newline + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(value, Decimal):
        # a label read as a JSON decimal (an outcome such as 0.5) prints
        # as its decimal text
        out.append(encode_basestring(str(value)))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key_text(key) -> str:
    """A non-str key as json.dumps spells it: an int, float, bool or None
    as its JSON text."""
    if key is not None and not isinstance(key, (int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    text: list = []
    _write(key, text, "")
    return text[0]


def dumps_report(report: Mapping) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.
    Identical inputs and configuration produce byte-identical output.

    The text is exactly that of ``json.dumps(report, sort_keys=True,
    indent=2, ensure_ascii=False, default=str_of_decimal) + "\\n"``, where
    ``str_of_decimal`` turns a Decimal into its text and rejects any other
    type.  A key that is not a str is sorted as it is and printed as
    json.dumps prints it.  It is written by one recursive walk into
    one list, because before Python 3.14 json.dumps encodes any
    ``indent`` in pure Python, one generator per nesting level, and a
    report with thousands of violated chains spent most of its output
    time there."""
    out: list = []
    _write(report, out, "\n")
    out.append("\n")
    return "".join(out)
