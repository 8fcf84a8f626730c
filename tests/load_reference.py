"""Reference system loader: one dict of cells per table, cell by cell.

This is the straightforward loop that ``ordist.fileio._system_from_doc``
replaced with work per table layout.  It reads every cell into an
outcome -> (numerator, denominator) dict, a float as the ratio it equals,
builds each point's axis from the tables in file order, and builds every
table through ``TreatmentTable.from_ints``, which re-checks its shape,
labelled "float" when a literal of the document read as a float.  It is slow but easy to read.  Tests compare the production
loader against it: the same tables in the same order, and the same
``SystemFormatError`` message on a malformed document.  It also rejects
an ``outcomes`` entry for a value its input does not have, and a string
or a mapping where a list belongs, as the production loader does.
"""

from __future__ import annotations

import io
import itertools
import math
from typing import Mapping

from ordist.arith import FLOAT, RATIONAL, digit_limit, parse_ratio
from ordist.errors import SystemFormatError
from ordist import fileio
from ordist.fileio import LoadedSystem, _read_json
from ordist.probspace import Design, InputPoint, TreatmentTable


def load_system(source, arithmetic: str = "auto") -> LoadedSystem:
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
            values[entry["name"]] = _as_list(entry["values"])
        except (KeyError, TypeError):
            raise SystemFormatError(f"bad input entry {entry!r}") from None
    treatments = doc.get("treatments", "full")
    design = Design(names, values, None if treatments == "full" else treatments)

    declared: dict[InputPoint, tuple] = {}
    for entry in doc.get("outcomes", []):
        try:
            name = entry["input"]
            vals = tuple(_as_list(entry["values"]))
        except (KeyError, TypeError):
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

    # each table's cells as (numerator, denominator) ints, a float as the
    # ratio it equals; a string literal is parsed once per document, as
    # tables repeat them
    raw_tables = []
    exact = arithmetic != FLOAT
    parsed: dict[str, object] = {}
    for tspec in tables_spec:
        try:
            treatment = tuple(_as_list(tspec["treatment"]))
            probs_spec = tspec["probs"]
        except (KeyError, TypeError):
            raise SystemFormatError(f"bad table entry {tspec!r}") from None
        cells = {}
        for cell in probs_spec:
            try:
                outcome = tuple(_as_list(cell["outcome"]))
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
                value = value.as_integer_ratio()
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
        tables.append(_table(design, treatment, table_axes, cells, regime))
    return LoadedSystem(design=design, tables=tables, regime=regime)


def _as_list(value) -> list:
    """A JSON list; a string, which list() would split into characters,
    or a mapping, which it would read as its keys, is a TypeError."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"not a list: {value!r}")
    return list(value)


def _table(design: Design, treatment, axes, cells, regime: str) -> TreatmentTable:
    den = math.lcm(*(d for _, d in cells.values()))
    scaled = {outcome: n * (den // d) for outcome, (n, d) in cells.items()}
    ints = [scaled.pop(outcome, 0) for outcome in itertools.product(*axes)]
    top = max(den, max(ints), -min(ints))
    limit = digit_limit()
    if (top.bit_length() + len(ints).bit_length() + 1) * math.log10(2) >= limit:
        raise SystemFormatError(
            f"probabilities in treatment {treatment!r} need more than {limit} digits"
        )
    return TreatmentTable.from_ints(design, treatment, axes, ints, den)._labelled(regime)


def load_both(text: str, arithmetic: str = "auto") -> list:
    """What ``ordist.fileio.load_system`` and this module's loader return
    or raise on the JSON text."""
    out = []
    for loader in (fileio.load_system, load_system):
        try:
            out.append(loader(io.StringIO(text), arithmetic))
        except Exception as exc:  # compared by the caller
            out.append(exc)
    return out


def assert_loads_alike(text: str, arithmetic: str = "auto") -> None:
    """Both loaders raise the same exception with the same message, or
    return the same tables in the same order: treatment, axes (printed
    alike), regime and cells as ints over one denominator."""
    loaded, reference = load_both(text, arithmetic)
    if isinstance(reference, Exception):
        assert type(loaded) is type(reference), (loaded, reference)
        assert str(loaded) == str(reference)
        return
    assert not isinstance(loaded, Exception), loaded
    assert loaded.regime == reference.regime
    assert loaded.design.inputs == reference.design.inputs
    assert loaded.design.values == reference.design.values
    assert loaded.design.treatments == reference.design.treatments
    assert len(loaded.tables) == len(reference.tables)
    for t, r in zip(loaded.tables, reference.tables):
        assert t.treatment == r.treatment
        assert repr(t.axes) == repr(r.axes)
        assert t.regime() == r.regime()
        assert t.scaled() == r.scaled()
